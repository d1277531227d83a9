"""Every demo runs to completion, and the randomness demo reproduces the
README's R values and writes the profiles it measured."""

import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import fibrand
from fibrand import (
    Convention,
    autocorrelation,
    general_moduli_sequence,
    prime_indexed_sequence,
    profile_csv,
)

DEMOS = Path(__file__).resolve().parents[1] / "demos"
SRC = Path(fibrand.__file__).resolve().parents[1]


def run_demo(name, tmp_path):
    # a copy, so the CSVs a demo writes next to itself stay out of the repo
    for script in DEMOS.glob("*.py"):
        shutil.copy(script, tmp_path)
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, str(tmp_path / name)],
        capture_output=True,
        text=True,
        timeout=120,
        env={**os.environ, "PYTHONPATH": path},
        cwd=tmp_path,
    )


@pytest.mark.parametrize("name", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_exits_0(name, tmp_path):
    result = run_demo(name, tmp_path)
    assert result.returncode == 0, result.stderr


def test_randomness_profile(tmp_path):
    result = run_demo("randomness_profile.py", tmp_path)
    assert result.returncode == 0, result.stderr
    lines = result.stdout.splitlines()
    for prefix, r in [
        ("prime-indexed, n=175: ", "0.9458"),
        ("prime-indexed, n=300: ", "0.9506"),
        ("general moduli, n=300: ", "0.7936"),
        ("n=300 under linear-unbiased: ", "0.8970"),
    ]:
        assert any(line.startswith(f"{prefix}R = {r}") for line in lines), prefix
    for filename, seq in [
        ("autocorr_primes_175.csv", prime_indexed_sequence(175)),
        ("autocorr_primes_300.csv", prime_indexed_sequence(300)),
        ("autocorr_general_300.csv", general_moduli_sequence(300)),
    ]:
        expected = profile_csv(autocorrelation(seq, Convention.CIRCULAR)) + "\n"
        assert (tmp_path / filename).read_text() == expected
