"""Joint multi-agent displacement metrics.

Both metrics take the minimum over one shared mode index for the whole
scene (joint), never the best mode per agent; that distinction is what
separates them from the ego-motion variants. Ties break toward the
lowest mode index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .scene import ModeSet, real_array


@dataclass(frozen=True)
class MetricResult:
    """A metric value in meters and the mode index achieving it."""

    value: float
    argmin_mode: int


def _mode_array(pred: Union[ModeSet, np.ndarray], gt: np.ndarray):
    modes = pred.modes if isinstance(pred, ModeSet) else real_array(pred, "modes")
    gt = real_array(gt, "ground truth")
    if modes.ndim != 4 or modes.shape[3] != 2:
        raise ValueError(f"modes: expected (M, N, T, 2), got {modes.shape}")
    if gt.shape != modes.shape[1:]:
        raise ValueError(
            f"ground truth shape {gt.shape} does not match modes {modes.shape[1:]}"
        )
    return modes, gt


def _best_mode(per_mode: np.ndarray, name: str) -> MetricResult:
    best = int(np.argmin(per_mode))
    value = float(per_mode[best])
    if not math.isfinite(value):
        raise ValueError(f"{name} is {value}: every mode's displacement error overflows")
    return MetricResult(value=value, argmin_mode=best)


def min_joint_ade(pred: Union[ModeSet, np.ndarray], gt: np.ndarray) -> MetricResult:
    """Minimum over modes of the displacement error averaged over all
    agents and steps; ValueError if the shapes disagree or every mode's
    error overflows."""
    modes, gt = _mode_array(pred, gt)
    with np.errstate(over="ignore", invalid="ignore"):
        per_mode = np.linalg.norm(modes - gt[None], axis=-1).mean(axis=(1, 2))
    return _best_mode(per_mode, "minJointADE")


def min_joint_fde(pred: Union[ModeSet, np.ndarray], gt: np.ndarray) -> MetricResult:
    """Minimum over modes of the final-step displacement error averaged
    over all agents; raises like :func:`min_joint_ade`."""
    modes, gt = _mode_array(pred, gt)
    with np.errstate(over="ignore", invalid="ignore"):
        per_mode = np.linalg.norm(modes[:, :, -1, :] - gt[None, :, -1, :], axis=-1).mean(axis=1)
    return _best_mode(per_mode, "minJointFDE")
