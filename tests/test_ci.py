"""CI is the Makefile: every step of ``.github/workflows/ci.yml`` is an
install or ``make <target>``, so a developer runs exactly what CI runs."""

import os
import re
import subprocess

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _read(*parts: str) -> str:
    with open(os.path.join(ROOT, *parts), encoding="utf-8") as fh:
        return fh.read()


def _matrix() -> list[str]:
    (targets,) = re.findall(r"^\s*target:\s*\[(.*)\]\s*$",
                            _read(".github", "workflows", "ci.yml"), re.M)
    return [t.strip() for t in targets.split(",")]


def _steps() -> list[str]:
    return [line.strip() for line in re.findall(
        r"^\s*(?:-\s+)?run:(.*)$", _read(".github", "workflows", "ci.yml"), re.M)]


#: ``make <target>``, the target literal or the matrix entry.
MAKE = re.compile(r"make ([\w-]+|\$\{\{ matrix\.target \}\})")
INSTALL = re.compile(r"(python -m )?pip install [^|;&<>`$]+")


def _make_targets() -> list[str]:
    """The targets the ``make`` steps name, ``matrix.target`` expanded."""
    targets = []
    for step in _steps():
        m = MAKE.fullmatch(step)
        if m:
            targets += _matrix() if m.group(1).startswith("$") else [m.group(1)]
    return targets


def test_every_ci_step_is_an_install_or_a_make_target():
    assert "<<" not in _read(".github", "workflows", "ci.yml")
    other = [s for s in _steps() if not (INSTALL.fullmatch(s) or MAKE.fullmatch(s))]
    assert not other, f"CI steps that are not an install or `make <target>`: {other}"
    assert _make_targets()


def test_make_ci_runs_the_ci_matrix():
    (entries,) = re.findall(r"for t in ([^;]+); do", _read("Makefile"))
    assert entries.split() == _matrix()


@pytest.mark.parametrize("target", sorted(set(_make_targets())))
def test_ci_target_exists(target):
    proc = subprocess.run(["make", "-n", target], cwd=ROOT,
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
