"""The coverage script's allowlist: a miss it does not list, or an entry
that matches no miss, is reported."""

from line_coverage import ALLOWED_MISSES, PACKAGE, unexplained


def test_every_allowed_miss_names_a_line_of_its_module():
    for module, text in ALLOWED_MISSES:
        lines = (PACKAGE / module).read_text(encoding="utf-8").splitlines()
        assert text in {line.strip() for line in lines}, (module, text)


def test_unlisted_misses_and_stale_entries_are_reported(tmp_path):
    module = tmp_path / "mod.py"
    module.write_text("x = 1\nif x:\n    raise ValueError(x)\ny = 2\n")
    allowed = {("mod.py", "raise ValueError(x)"): "why", ("mod.py", "z = 3"): "why"}
    report = {module: ({1, 2, 3, 4}, [3, 4])}
    assert unexplained(report, allowed) == [
        "unexplained miss: mod.py:4: y = 2",
        "allowed miss no longer missed: mod.py: z = 3",
    ]
    del allowed[("mod.py", "z = 3")]
    assert unexplained({module: ({1, 2, 3, 4}, [3])}, allowed) == []
