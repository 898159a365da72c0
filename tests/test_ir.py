"""Tests for the plan IR layer (``repro.core.ir``).

**Golden IR dumps** — ``explain_plan`` output for every bundled format is
pinned under ``tests/golden_ir/``.  A refactor that changes what the front
end lowers a format to (rule order, dispatch tables, fuel placement, op
sequences) fails here even when every engine still agrees at runtime.
Regenerate after an intentional change with::

    PYTHONPATH=src python -m pytest tests/test_ir.py --update-golden

Pass-toggle equivalence of the compiled engine against the optimisation-off
interpreter lives in ``test_compiler_passes.py``.
"""

from pathlib import Path

import pytest

from repro.core.compiler import Optimizations
from repro.core.interpreter import prepare_grammar
from repro.core.ir import explain_plan, lower
from repro.formats import registry

GOLDEN_IR_DIR = Path(__file__).parent / "golden_ir"


def golden_ir_path(fmt: str) -> Path:
    return GOLDEN_IR_DIR / f"{fmt}.txt"


def format_plan(fmt: str, optimizations=None):
    spec = registry[fmt]
    return lower(prepare_grammar(spec.grammar_text), optimizations=optimizations)


# ---------------------------------------------------------------------------
# Golden IR dumps
# ---------------------------------------------------------------------------


class TestGoldenIR:
    @pytest.mark.parametrize("fmt", sorted(registry))
    def test_explain_matches_golden_artifact(self, fmt, update_golden):
        dump = explain_plan(format_plan(fmt)).rstrip("\n")
        path = golden_ir_path(fmt)
        if update_golden:
            GOLDEN_IR_DIR.mkdir(exist_ok=True)
            path.write_text(dump + "\n", encoding="utf-8")
            pytest.skip(f"golden IR dump for {fmt} rewritten")
        assert path.exists(), (
            f"missing golden IR dump {path}; generate it with "
            f"`pytest tests/test_ir.py --update-golden`"
        )
        pinned = path.read_text(encoding="utf-8").rstrip("\n")
        assert dump == pinned, (
            f"{fmt}: lowered plan IR diverged from the pinned dump; if the "
            f"change is intentional, re-run with --update-golden"
        )

    def test_explain_is_deterministic(self):
        assert explain_plan(format_plan("dns")) == explain_plan(format_plan("dns"))

    def test_explain_reflects_disabled_passes(self):
        full = explain_plan(format_plan("dns"))
        bare = explain_plan(format_plan("dns", optimizations=Optimizations.none()))
        assert full != bare
        assert "first_byte_dispatch=True" in full
        assert "first_byte_dispatch=False" in bare
