"""Every array argument is taken in by ``scene.real_array``, so the same
finite values give byte-identical results whether they come as a list of
Python numbers, an int64 array or a float64 array."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from jointmotion import (
    CorrelationMatrix,
    IncrementParams,
    JointGaussian,
    Marginals,
    assemble_joint,
    cholesky_factor,
    empirical_increment_pcc,
    heading_vectors,
    increments_from_positions,
    min_eigenvalue,
    min_joint_ade,
    min_joint_fde,
    pair_count,
    project_increments,
    projected_marginals,
    scene_nll,
    tikhonov_regularize,
    trajectory_nll,
    wrap_angle,
)
from jointmotion.fit import (
    DirectRhoParams,
    UnitRowRhoParams,
    finite_difference_gradient,
    relative_gradient_errors,
)
from jointmotion.gaussian import symmetric_matrix
from jointmotion.relevance import (
    RelevanceHead,
    cosine_gram,
    cosine_gram_backward,
    relevance_forward_cached,
)

FORMS = {
    "list": lambda arr: arr.tolist(),
    "int64": lambda arr: arr,
    "float64": lambda arr: arr.astype(np.float64),
}

HEAD_DIM = 2


def as_bytes(value):
    """Every array's dtype, shape and bytes, and every other leaf's repr,
    in a nest that follows ``value`` (containers and instance fields)."""
    if isinstance(value, np.ndarray):
        return value.dtype.str, value.shape, value.tobytes()
    if isinstance(value, (tuple, list)):
        return tuple(as_bytes(item) for item in value)
    if isinstance(value, dict):
        return tuple((key, as_bytes(item)) for key, item in sorted(value.items()))
    if hasattr(value, "__dict__"):
        return type(value).__name__, as_bytes(vars(value))
    return repr(value)


class Draws:
    """Small int64 arrays drawn for one example, and the valid inputs
    built from them with integer arithmetic."""

    def __init__(self, data, n):
        self.data = data
        self.n = n

    def ints(self, shape, low=-3, high=3):
        elements = st.integers(low, high)
        return self.data.draw(hnp.arrays(np.int64, shape, elements=elements))

    def symmetric(self, size):
        square = self.ints((size, size))
        return square + square.T

    def positive_definite(self, size):
        square = self.ints((size, size))
        return square @ square.T + np.eye(size, dtype=np.int64)

    def correlation(self):
        rho = np.sign(self.symmetric(self.n))
        np.fill_diagonal(rho, 1)
        return rho

    def increments(self):
        return self.ints((self.n,), 0, 3), self.ints((self.n,), 1, 3)

    def marginals(self):
        n = self.n
        return (
            self.ints((n,)),
            self.ints((n,)),
            self.ints((n,), 0, 3),
            self.ints((n,), 0, 3),
            self.ints((n,), -1, 1),
        )


def trajectory(mean, cov, observations):
    return trajectory_nll([JointGaussian(mean, cov)] * len(observations), observations)


def head_arrays(d):
    k = HEAD_DIM
    return tuple(d.ints(shape) for shape in [(k, k)] * 4 + [(k,), (k, k), (k,)])


def unit_rows(d):
    """(N, 3) int rows with a first entry of 1, so no row has zero norm."""
    return np.hstack([np.ones((d.n, 1), np.int64), d.ints((d.n, 2))])


# name: draws -> (the int64 arrays the entry point takes, the call taking them)
ENTRY_POINTS = {
    "JointGaussian": lambda d: ((d.ints((2 * d.n,)), d.symmetric(2 * d.n)), JointGaussian),
    "CorrelationMatrix": lambda d: ((d.correlation(),), CorrelationMatrix),
    "symmetric_matrix": lambda d: ((d.symmetric(d.n),), symmetric_matrix),
    "cholesky_factor": lambda d: ((d.positive_definite(d.n),), cholesky_factor),
    "tikhonov_regularize": lambda d: (
        (d.ints((d.n, d.n)),),
        lambda cov: tikhonov_regularize(cov, 0.5),
    ),
    "min_eigenvalue": lambda d: ((d.symmetric(d.n),), min_eigenvalue),
    "scene_nll": lambda d: (
        (d.ints((2 * d.n,)), d.positive_definite(2 * d.n), d.ints((2 * d.n,))),
        lambda mean, cov, observation: scene_nll(JointGaussian(mean, cov), observation),
    ),
    "trajectory_nll": lambda d: (
        (d.ints((2 * d.n,)), d.positive_definite(2 * d.n), d.ints((3, 2 * d.n))),
        trajectory,
    ),
    "project_increments": lambda d: (
        (*d.increments(), d.correlation(), d.ints((d.n,)), d.ints((d.n, 2))),
        lambda mu, sigma, *rest: project_increments(IncrementParams(mu, sigma), *rest),
    ),
    "projected_marginals": lambda d: (
        (*d.increments(), d.ints((d.n,)), d.ints((d.n, 2))),
        lambda mu, sigma, *rest: projected_marginals(IncrementParams(mu, sigma), *rest),
    ),
    "assemble_joint": lambda d: (
        (*d.marginals(), d.correlation(), d.ints((d.n,))),
        lambda *given: assemble_joint(Marginals(*given[:5]), *given[5:]),
    ),
    "heading_vectors": lambda d: ((d.ints((2, d.n)),), heading_vectors),
    "wrap_angle": lambda d: ((d.ints((d.n,), -10, 10),), wrap_angle),
    "min_joint_ade": lambda d: ((d.ints((3, d.n, 2, 2)), d.ints((d.n, 2, 2))), min_joint_ade),
    "min_joint_fde": lambda d: ((d.ints((3, d.n, 2, 2)), d.ints((d.n, 2, 2))), min_joint_fde),
    "increments_from_positions": lambda d: (
        (d.ints((4, d.n, 2)), d.ints((d.n, 2)), d.ints((d.n,))),
        increments_from_positions,
    ),
    # a row of zeros and a row of ones: no column has zero variance
    "empirical_increment_pcc": lambda d: (
        (np.vstack([np.zeros((1, d.n), np.int64), np.ones((1, d.n), np.int64), d.ints((3, d.n))]),),
        empirical_increment_pcc,
    ),
    "DirectRhoParams": lambda d: (
        (d.ints((2, pair_count(d.n))),),
        lambda raw: DirectRhoParams(raw, d.n),
    ),
    # integer correlations below 1 in magnitude are 0 off the diagonal,
    # which from_rho does not read
    "DirectRhoParams.from_rho": lambda d: (
        (np.diag(d.ints((d.n,))),),
        lambda rho: DirectRhoParams.from_rho(rho, t_fut=2),
    ),
    "UnitRowRhoParams.from_rho": lambda d: (
        (d.positive_definite(d.n),),
        lambda rho: UnitRowRhoParams.from_rho(rho, t_fut=2),
    ),
    "DirectRhoParams.with_vector": lambda d: (
        (d.ints((2 * pair_count(d.n),)),),
        DirectRhoParams.zeros(2, d.n).with_vector,
    ),
    "finite_difference_gradient": lambda d: (
        (d.ints((d.n,)),),
        lambda x: finite_difference_gradient(lambda v: float(v @ v), x, 0.5),
    ),
    "relative_gradient_errors": lambda d: (
        (d.ints((d.n,)), d.ints((d.n,))),
        relative_gradient_errors,
    ),
    "RelevanceHead": lambda d: (head_arrays(d), RelevanceHead),
    "RelevanceHead.unpack": lambda d: (
        (np.concatenate([arr.ravel() for arr in head_arrays(d)]),),
        lambda vector: RelevanceHead.unpack(vector, HEAD_DIM),
    ),
    "relevance_forward_cached": lambda d: (
        (d.ints((2, d.n, HEAD_DIM)),),
        lambda features: relevance_forward_cached(features, RelevanceHead.initialize(HEAD_DIM, 0)),
    ),
    "cosine_gram": lambda d: ((unit_rows(d),), cosine_gram),
    "cosine_gram_backward": lambda d: (
        (d.ints((d.n, d.n)), d.ints((d.n, 3)), d.ints((d.n,), 1, 3)),
        cosine_gram_backward,
    ),
}


@pytest.mark.parametrize("name", list(ENTRY_POINTS))
@settings(max_examples=15, deadline=None)
@given(data=st.data(), n=st.integers(1, 3))
def test_same_values_give_the_same_bytes_in_every_form(name, data, n):
    arrays, call = ENTRY_POINTS[name](Draws(data, n))
    results = {form: as_bytes(call(*map(convert, arrays))) for form, convert in FORMS.items()}
    assert results["list"] == results["float64"]
    assert results["int64"] == results["float64"]
