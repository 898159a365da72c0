"""Failure diagnosis: classify *why* and *where* a parse failed.

The engines parse fast: biased choice is implemented with a ``FAIL``
sentinel and no bookkeeping, so a failed parse initially knows nothing
beyond "the start symbol produced Fail".  When a raising entry point
(:meth:`Parser.parse`, a streaming session's ``finish``,
:meth:`Parser.parse_lazy`, :meth:`CompiledGrammar.parse`, an AOT
module's ``parse``) needs a structured error, it re-runs the input
through a *diagnostic* engine that records every primitive failure it
encounters and keeps the *furthest* one (the classic furthest-failure
heuristic of PEG error reporting).  There are two such engines:

* the **compiled diagnosis** — a variant of the closure backend
  (``compile_grammar(..., diagnose=True)``, built on a compiled parser's
  first failure): tree-elided, every rule memoized, first-byte dispatch,
  fixed-shape plans and inlining off.  Its failure sites call the
  classification functions below and every rule activation pushes and
  pops the rule-name stack of a per-parse :class:`DiagnosisRecord`;
* the **reference diagnosis** :class:`_DiagRun` — a subclass of the
  reference interpreter's ``_Run`` calling the same functions.  It
  serves interpreted parsers, ``parse_recover``'s per-window
  diagnoses (:func:`repro.core.recover.diagnose_window`) and AOT modules
  (:func:`diagnose_failure`), and it is the oracle the compiled diagnosis
  is differentially tested against (``tests/test_compiled_diagnosis.py``).

Both run the same canonical configuration (no first-byte dispatch, no
fixed-shape plans, memoized) and share the classification code — ranks,
tie-break, offsets, messages, violated interval — so every engine raises
the same error class, offset, rule stack, interval and message;
``tests/engine_matrix.py::assert_error_agree`` compares them field by
field.

Classification (ties at the same offset resolved by priority
truncation > bounds > guard, then by the first failure recorded):

* :class:`TruncatedInput` — the parse needed bytes past the end of the
  received input (interval reaching past EOF, terminal or fixed-width
  builtin hanging over the end).  Offset = input length.
* :class:`BoundsViolation` — an interval invalid *within* the data:
  negative/inverted, overrunning its enclosing window although the
  underlying bytes exist (the length-field-lie case), or an interval
  expression that failed to evaluate.
* :class:`GuardRejected` — bytes present but wrong: terminal literal
  mismatch (offset = first differing byte), guard false, builtin
  content rejection, blackbox refusal, no switch case.

:class:`LimitExceeded` is *not* produced here — engines raise it
natively when a budget trips (it aborts the parse rather than failing
an alternative); its ``offset`` is always ``None`` so engines trivially
agree on it.  The diagnosis itself runs under the parser's budgets: an
input that exhausts them during re-analysis surfaces as
``LimitExceeded``.

Diagnosis is a cold path — it only ever runs after a parse already
failed — but on a rejection-heavy workload it is most of the cost of a
rejected input, which is why compiled parsers get a compiled diagnosis.
"""

from __future__ import annotations

import sys
from typing import Dict, Optional, Union

from .ast import Grammar, TermAttrDef, TermGuard
from .buffers import as_buffer
from .builtins import BUILTINS, BlackboxCallable
from .env import upd_start_end_in_place
from .errors import (
    BoundsViolation,
    EvaluationError,
    GuardRejected,
    LimitExceeded,
    ParseFailure,
    TruncatedInput,
)
from .interpreter import FAIL, Parser, _Run, prepare_grammar
from .limits import ParseLimits

__all__ = ["diagnose_parser", "diagnose_failure", "diagnose_compiled"]

#: Tie-break priority at equal offsets.
_RANK_GUARD = 1
_RANK_BOUNDS = 2
_RANK_TRUNCATED = 3


class DiagnosisRecord:
    """The furthest failure of one diagnostic run plus its rule stack.

    ``stack`` holds the names of the active rule activations (pushed on
    entry, popped on exit); ``best`` is ``(offset, rank, class, message,
    rule, rule_stack, interval)`` of the furthest failure recorded so far.
    """

    __slots__ = ("best", "stack")

    def __init__(self):
        self.best = None
        self.stack = []

    def record(self, offset, rank, cls, message, interval=None):
        best = self.best
        if best is not None and (offset, rank) <= (best[0], best[1]):
            return
        stack = self.stack
        self.best = (
            offset,
            rank,
            cls,
            message,
            stack[-1] if stack else "",
            tuple(stack),
            interval,
        )

    def as_exception(self, start: str, size: int) -> ParseFailure:
        """The structured error for a failed parse of ``start``."""
        if self.best is None:
            return ParseFailure(
                f"input of length {size} does not match nonterminal {start!r}",
                nonterminal=start,
            )
        offset, _rank, cls, message, in_rule, rule_stack, interval = self.best
        # ``nonterminal`` stays the *requested* start symbol — "parsing
        # {start} failed" — matching what callers asked for; the rule the
        # failure happened inside lives in the message and rule_stack.
        return cls(
            f"{message} (in rule {in_rule!r} at offset {offset})"
            if in_rule
            else f"{message} (at offset {offset})",
            nonterminal=start,
            offset=offset,
            rule_stack=rule_stack,
            interval=interval,
        )


# ---------------------------------------------------------------------------
# Classification of failure sites (shared by _DiagRun and compiled code)
# ---------------------------------------------------------------------------


def fail_guard(record: DiagnosisRecord, offset: int) -> None:
    """A where-guard evaluated false; ``offset`` = window start + ``end``."""
    record.record(offset, _RANK_GUARD, GuardRejected, "a where-guard evaluated false")


def fail_guard_eval(record: DiagnosisRecord, offset: int) -> None:
    record.record(
        offset, _RANK_GUARD, GuardRejected, "guard expression failed to evaluate"
    )


def fail_attribute(record: DiagnosisRecord, offset: int, name: str) -> None:
    record.record(
        offset, _RANK_GUARD, GuardRejected, f"attribute {name!r} failed to evaluate"
    )


def fail_switch(record: DiagnosisRecord, offset: int) -> None:
    record.record(offset, _RANK_GUARD, GuardRejected, "no switch case applied")


def fail_interval_eval(record: DiagnosisRecord, lo: int) -> None:
    """An interval endpoint of a term in the window at ``lo`` raised."""
    record.record(
        lo, _RANK_BOUNDS, BoundsViolation, "interval expression failed to evaluate"
    )


def fail_evaluation(record: DiagnosisRecord, site: tuple, lo: int, end: int) -> None:
    """An expression raised at ``site`` of compiled code.

    ``site`` is ``("interval",)``, ``("guard",)`` or ``("attribute",
    name)``; ``lo`` is the window start and ``end`` the alternative's
    ``end`` attribute when the expression raised.
    """
    kind = site[0]
    if kind == "interval":
        fail_interval_eval(record, lo)
    elif kind == "guard":
        fail_guard_eval(record, lo + end)
    else:
        fail_attribute(record, lo + end, site[1])


def fail_interval(record, data, lo: int, left: int, right: int, length: int) -> None:
    """``[left, right)`` is invalid in the ``length``-byte window at ``lo``."""
    interval = (lo + left, lo + right)
    if left < 0 or right < left:
        record.record(
            lo,
            _RANK_BOUNDS,
            BoundsViolation,
            f"invalid interval [{left}, {right})",
            interval,
        )
    elif lo + right > len(data):
        record.record(
            len(data),
            _RANK_TRUNCATED,
            TruncatedInput,
            f"interval [{left}, {right}) needs {lo + right - len(data)} bytes "
            f"past end of input",
            interval,
        )
    else:
        record.record(
            lo + min(left, length),
            _RANK_BOUNDS,
            BoundsViolation,
            f"interval [{left}, {right}) overruns its {length}-byte enclosing "
            f"window",
            interval,
        )


def fail_terminal_window(record, data, lo: int, left: int, right: int, literal) -> None:
    """The valid interval ``[left, right)`` is shorter than ``literal``."""
    absolute = lo + left
    if absolute + len(literal) > len(data):
        record.record(
            len(data),
            _RANK_TRUNCATED,
            TruncatedInput,
            f"terminal {literal!r} needs {absolute + len(literal) - len(data)} "
            f"bytes past end of input",
        )
    else:
        record.record(
            absolute,
            _RANK_BOUNDS,
            BoundsViolation,
            f"window [{left}, {right}) too small for terminal {literal!r}",
            (absolute, lo + right),
        )


def fail_terminal(record, data, absolute: int, literal) -> None:
    """The bytes at ``absolute`` differ from ``literal``."""
    window = data[absolute : absolute + len(literal)]
    diff = 0
    while literal[diff] == window[diff]:
        diff += 1
    record.record(
        absolute + diff,
        _RANK_GUARD,
        GuardRejected,
        f"expected {literal!r}, found byte 0x{window[diff]:02x}",
    )


def fail_builtin(record, data, name: str, lo: int, hi: int) -> None:
    """Builtin ``name`` rejected the window ``[lo, hi)``."""
    size = BUILTINS[name].size
    if size is not None and hi - lo < size:
        if lo + size > len(data):
            record.record(
                len(data),
                _RANK_TRUNCATED,
                TruncatedInput,
                f"builtin {name} needs {size} bytes, {len(data) - lo} available",
            )
        else:
            record.record(
                lo,
                _RANK_BOUNDS,
                BoundsViolation,
                f"window of {hi - lo} bytes too small for {size}-byte builtin "
                f"{name}",
                (lo, hi),
            )
    else:
        record.record(
            lo,
            _RANK_GUARD,
            GuardRejected,
            f"builtin {name} rejected its {hi - lo}-byte window",
        )


def fail_blackbox(record: DiagnosisRecord, name: str, lo: int, hi: int) -> None:
    record.record(
        lo,
        _RANK_GUARD,
        GuardRejected,
        f"blackbox {name} rejected its {hi - lo}-byte window",
    )


# ---------------------------------------------------------------------------
# The reference diagnosis
# ---------------------------------------------------------------------------


class _DiagRun(_Run):
    """Reference-interpreter run that records failures in :attr:`diag`.

    Runs the canonical configuration: the plain per-term interpreter
    (first-byte dispatch and fixed-shape plans change *where* work
    happens, and diagnosis must visit failure sites itself), memoized.
    """

    __slots__ = ("diag",)

    FAST_PATHS = False

    def __init__(self, parser, data):
        super().__init__(parser, data, build_tree=False)
        self.memoize = True
        self.diag = DiagnosisRecord()

    def _parse_rule(self, rule, lo, hi, outer_ctx, local_rules):
        stack = self.diag.stack
        stack.append(rule.name)
        try:
            return super()._parse_rule(rule, lo, hi, outer_ctx, local_rules)
        finally:
            stack.pop()

    def _exec_term(self, term, ctx, children, lo, hi, local_rules):
        if isinstance(term, TermGuard):
            try:
                value = term.expr.evaluate(ctx)
            except EvaluationError:
                fail_guard_eval(self.diag, lo + ctx.env.get("end", 0))
                raise
            if value == 0:
                fail_guard(self.diag, lo + ctx.env.get("end", 0))
                return False
            return True
        if isinstance(term, TermAttrDef):
            try:
                ctx.bind(term.name, term.expr.evaluate(ctx))
            except EvaluationError:
                fail_attribute(self.diag, lo + ctx.env.get("end", 0), term.name)
                raise
            return True
        return super()._exec_term(term, ctx, children, lo, hi, local_rules)

    def _interval(self, term, ctx, lo, hi):
        try:
            left = term.interval.left.evaluate(ctx)
            right = term.interval.right.evaluate(ctx)
        except EvaluationError:
            fail_interval_eval(self.diag, lo)
            raise
        if not 0 <= left <= right <= hi - lo:
            fail_interval(self.diag, self.data, lo, left, right, hi - lo)
            return None
        return left, right

    def _exec_terminal(self, term, ctx, children, lo, hi):
        bounds = self._interval(term, ctx, lo, hi)
        if bounds is None:
            return False
        left, right = bounds
        literal = term.value
        if right - left < len(literal):
            fail_terminal_window(self.diag, self.data, lo, left, right, literal)
            return False
        absolute = lo + left
        if self.data[absolute : absolute + len(literal)] != literal:
            fail_terminal(self.diag, self.data, absolute, literal)
            return False
        upd_start_end_in_place(ctx.env, left, left + len(literal), literal != b"")
        return True

    def _exec_switch(self, term, ctx, children, lo, hi, local_rules):
        for case in term.cases:
            if case.condition is None or case.condition.evaluate(ctx) != 0:
                return self._exec_nonterminal(
                    case.target, ctx, children, lo, hi, local_rules
                )
        fail_switch(self.diag, lo + ctx.env.get("end", 0))
        return False

    def _parse_builtin(self, name, lo, hi):
        result = super()._parse_builtin(name, lo, hi)
        if result is FAIL:
            fail_builtin(self.diag, self.data, name, lo, hi)
        return result

    def _parse_blackbox(self, name, lo, hi):
        result = super()._parse_blackbox(name, lo, hi)
        if result is FAIL:
            fail_blackbox(self.diag, name, lo, hi)
        return result


# ---------------------------------------------------------------------------
# Entry points
# ---------------------------------------------------------------------------


def _classify(run, data, start: str, recursion_limit: int) -> ParseFailure:
    """Run ``run() -> (result, record)`` and turn it into the exception."""
    previous_limit = sys.getrecursionlimit()
    if recursion_limit > previous_limit:
        sys.setrecursionlimit(recursion_limit)
    try:
        result, record = run()
    except LimitExceeded as exc:
        return exc
    except (RecursionError, MemoryError) as exc:
        return LimitExceeded(
            f"{type(exc).__name__} while diagnosing the failed parse of "
            f"{start!r}",
            limit="recursion",
            nonterminal=start,
        )
    finally:
        if recursion_limit > previous_limit:
            sys.setrecursionlimit(previous_limit)
    if result is not FAIL:
        # Defensive: the fast engine failed but the diagnosis succeeded.
        # Report the failure without a bogus classification.
        return ParseFailure(
            f"input of length {len(data)} does not match nonterminal "
            f"{start!r} (diagnosis disagreed; engines out of sync?)",
            nonterminal=start,
        )
    return record.as_exception(start, len(data))


def _run_diagnosis(parser: Parser, data, start: str) -> ParseFailure:
    """The reference diagnosis of a failed parse."""

    def run():
        diag_run = _DiagRun(parser, data)
        return diag_run.parse_nonterminal(start, 0, len(data), None, None), diag_run.diag

    return _classify(run, data, start, parser.recursion_limit)


def diagnose_compiled(
    compiled, data, start: str, recursion_limit: int = 100_000
) -> ParseFailure:
    """Diagnose a failed parse through a diagnosis compilation.

    ``compiled`` is a :class:`~repro.core.backends.closures.CompiledGrammar`
    built with ``diagnose=True``; returns the exception.
    """
    return _classify(
        lambda: compiled.run_diagnosis(data, start), data, start, recursion_limit
    )


def diagnose_parser(parser: Parser, data: bytes, start: str) -> ParseFailure:
    """Diagnose a failed ``parser.parse(data, start)``; returns the exception.

    Compiled parsers run their diagnosis compilation, every other engine
    the reference diagnosis.  The caller raises the result (keeping the
    raise site in the engine's own entry point).
    """
    data = as_buffer(data)
    compiled = parser._diagnosis_compiled()
    if compiled is not None:
        return diagnose_compiled(compiled, data, start, parser.recursion_limit)
    return _run_diagnosis(parser, data, start)


#: Prepared grammars keyed by source text (AOT modules re-diagnose
#: through their embedded ``GRAMMAR_SOURCE`` — parse the text once).
_PREPARED: Dict[str, Grammar] = {}


def diagnose_failure(
    grammar: Union[Grammar, str],
    data: bytes,
    start: Optional[str] = None,
    blackboxes: Optional[Dict[str, BlackboxCallable]] = None,
    limits: Optional[ParseLimits] = None,
) -> ParseFailure:
    """Diagnose a failed parse given only the grammar (text or object).

    Used by ahead-of-time emitted modules, which embed their grammar
    source and call back into this function (when the ``repro`` package
    is importable) to produce the same structured error the in-process
    engines raise.  Runs the reference diagnosis.
    """
    if isinstance(grammar, str):
        prepared = _PREPARED.get(grammar)
        if prepared is None:
            prepared = _PREPARED[grammar] = prepare_grammar(grammar)
        grammar = prepared
    parser = Parser(
        grammar,
        blackboxes=blackboxes,
        backend="interpreted",
        first_byte_dispatch=False,
        bulk_fixed_shape=False,
        limits=limits,
    )
    return _run_diagnosis(parser, as_buffer(data), start or grammar.start)
