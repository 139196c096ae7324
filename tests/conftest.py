import os
import sys

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DATA = os.path.join(REPO, "tests", "data")
NEGATIVE = os.path.join(DATA, "negative")
CORPUS = os.path.join(REPO, "corpus")


@pytest.fixture
def run_cli(tmp_path, capsys):
    """Run the CLI in-process; returns (exit_code, stdout, stderr)."""
    from stt.cli import main

    def _run(*argv: str, cache_dir=None):
        args = list(argv)
        if cache_dir is None:
            args += ["--no-cache"]
        else:
            args += ["--cache-dir", str(cache_dir)]
        code = main(args)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


@pytest.fixture
def unfolding_kernel(monkeypatch):
    """Check with `kernel_oracle.UnfoldingChecker` in place of `Checker`,
    the kernel that unfolds α-equal sides instead of stopping at them."""
    import stt.kernel
    from kernel_oracle import UnfoldingChecker

    monkeypatch.setattr(stt.kernel, "Checker", UnfoldingChecker)
