"""The compiled failure diagnosis against its oracle, the reference one.

A compiled parser diagnoses a rejected input through a diagnosis
compilation of the closure backend (``compile_grammar(...,
diagnose=True)``); every other engine runs the reference interpreter's
diagnosis (``repro.core.diagnose._DiagRun``).  Both must produce the same
structured error — class, offset, rule stack, violated interval, message
and requested nonterminal — on every input.  This file checks that field
for field on three input sets (the golden hostile corpus, every-offset
truncations of small samples, hypothesis-drawn mutants) plus grammars
that reach every kind of failure site, and checks that compiled entry
points never fall back to the reference diagnosis.
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from repro import Parser, samples
from repro.core import diagnose
from repro.core.compiler import compile_grammar
from repro.core.diagnose import _run_diagnosis, diagnose_compiled
from repro.core.errors import BlackboxError, ParseFailure
from repro.formats import registry, toy

HOSTILE_DIR = Path(__file__).parent / "hostile"

with open(HOSTILE_DIR / "expectations.json", "r", encoding="utf-8") as _handle:
    HOSTILE = sorted(json.load(_handle))

#: Small valid inputs per format (every-offset truncations stay cheap).
SMALL_SAMPLES = {
    "dns": lambda: samples.build_dns_response(answer_count=2, additional_count=1),
    "ipv4": lambda: samples.build_ipv4_udp_packet(payload_size=24),
    "gif": lambda: samples.build_gif(),
    "zip": lambda: samples.build_zip(member_count=2, member_size=40),
    "elf": lambda: samples.build_elf(section_count=3, symbol_count=4, dynamic_entries=2),
    "pe": lambda: samples.build_pe(),
    "pdf": lambda: samples.build_pdf(object_count=2, body_padding=8)[0],
}

_PARSERS = {}


def _parser(fmt: str) -> Parser:
    if fmt not in _PARSERS:
        _PARSERS[fmt] = registry[fmt].build_parser()
    return _PARSERS[fmt]


def _fields(diagnosis):
    """Every field of a diagnosis outcome (a raised blackbox error too)."""
    try:
        exc = diagnosis()
    except BlackboxError as raised:
        return ("raised", type(raised).__name__, str(raised))
    return (
        type(exc).__name__,
        exc.offset,
        exc.rule_stack,
        exc.interval,
        str(exc),
        exc.nonterminal,
    )


def assert_diagnoses_agree(parser: Parser, data: bytes, start=None) -> bool:
    """Compiled diagnosis == reference diagnosis; False when ``data`` parses."""
    start = start or parser.grammar.start
    try:
        if parser.try_parse(data, start, emit=None) is not None:
            return False
    except BlackboxError:
        pass  # the diagnoses re-run the raising blackbox: compare that too
    compiled = parser._diagnosis_compiled()
    assert compiled is not None
    reference = _fields(lambda: _run_diagnosis(parser, data, start))
    outcome = _fields(lambda: diagnose_compiled(compiled, data, start))
    assert outcome == reference, (
        f"compiled diagnosis {outcome!r} != reference {reference!r} "
        f"(input {data[:32]!r}..., length {len(data)})"
    )
    return True


# ---------------------------------------------------------------------------
# The three input sets
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("relpath", HOSTILE)
def test_hostile_corpus(relpath):
    fmt = relpath.split("/", 1)[0]
    data = (HOSTILE_DIR / relpath).read_bytes()
    assert assert_diagnoses_agree(_parser(fmt), data)


@pytest.mark.parametrize("fmt", sorted(SMALL_SAMPLES))
def test_every_offset_truncation(fmt):
    data = SMALL_SAMPLES[fmt]()
    parser = _parser(fmt)
    rejected = sum(assert_diagnoses_agree(parser, data[:cut]) for cut in range(len(data)))
    assert rejected > 0


@settings(max_examples=150, deadline=None)
@given(
    fmt=st.sampled_from(sorted(SMALL_SAMPLES)),
    flips=st.lists(
        st.tuples(st.floats(0, 1, exclude_max=True), st.integers(0, 255)),
        min_size=1,
        max_size=4,
    ),
    cut=st.one_of(st.none(), st.floats(0, 1)),
)
def test_hypothesis_mutants(fmt, flips, cut):
    data = bytearray(SMALL_SAMPLES[fmt]())
    for position, value in flips:
        data[int(position * len(data))] = value
    if cut is not None:
        del data[int(cut * len(data)) :]
    assert_diagnoses_agree(_parser(fmt), bytes(data))


# ---------------------------------------------------------------------------
# Every kind of failure site
# ---------------------------------------------------------------------------


def _pick(window: bytes):
    """Blackbox: accepts windows starting with an even byte."""
    if not window or window[0] % 2:
        return None
    return {"first": window[0]}


#: Grammars reaching the failure sites the bundled formats leave rare:
#: switches without a default, where-rules, guards and attributes and
#: intervals that fail to evaluate, windows too small for what they
#: hold, blackbox and builtin rejections, array element references out
#: of range.  Each comes with seed inputs whose neighbourhoods (below)
#: make every site the furthest failure of some input.
FEATURE_GRAMMARS = {
    "switch_where": """
        S -> U8[0, 1] {t = U8.val}
             for i = 0 to t % 4 do E[1 + 3 * i, 4 + 3 * i]
               where {
                 E -> U8[0, 1] {k = U8.val}
                      switch(k % 3 = 1 : A[1, EOI] / 12 / (k - 5) = 2 : B[1, EOI]) ;
               } ;
        A -> "a"[0, 1] U8 ;
        B -> U16BE[0, 2] guard(U16BE.val > 10) ;
    """,
    "evaluation_errors": """
        S -> U8[0, 1] {d = U8.val} N[1, EOI] {q = 100 / d}
             guard(200 / (d - 1) > 3)
             R[N.end + 1, N.end + 1 + 8 / (d - 2)]
             for i = 0 to 6 / (d - 4) do E[R.end + i, R.end + i + 1]
             {e = E(d - 3).val} ;
        N -> U8[0, 1] {m = U8.val} Raw[1, 1 + 8 / (m - 3)]
             guard(60 / (m - 4) > 1) {w = 10 / (m - 5)} ;
        R -> Raw[0, EOI] ;
        E -> U8[0, 1] {val = U8.val} ;
    """,
    "windows": """
        S -> W[0, 4] Raw[4, EOI] ;
        W -> U8[0, 1] Raw[1, 1 + U8.val] "!"[U8.val, U8.val + 1]
           / U8[0, 1] "xyz"[1, 1 + U8.val]
           / U8[0, 1] U16LE[2, 1 + U8.val] ;
    """,
    "short_terminal": """
        S -> T[0, 4] Raw[4, EOI] ;
        T -> U8[0, 1] "xyz"[1, 1 + U8.val] ;
    """,
    "blackbox_builtins": """
        blackbox Pick ;
        S -> U8[0, 1] Pick[1, 1 + U8.val] "!!"[1 + U8.val, 3 + U8.val]
             AsciiInt[3 + U8.val, EOI] ;
    """,
    "choice": """
        S -> "ab"[0, 2] X[2, EOI] / "a"[0, 1] Y[1, EOI] / U32BE[0, 4] ;
        X -> "cd"[0, 2] / U16LE[1, 3] guard(U16LE.val = 7) ;
        Y -> "bx"[0, 2] ;
    """,
}
FEATURE_GRAMMARS.update(toy.ALL_GRAMMARS)

FEATURE_SEEDS = {
    "switch_where": [bytes([3, 1, 97, 5, 2, 0, 20, 0, 0, 0])],
    "evaluation_errors": [bytes([7, 9, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0])],
    "windows": [bytes([2, 0, 33, 0, 0, 0]), b"\x03xyz!!"],
    "short_terminal": [b"\x03xyz\x00\x00"],
    "blackbox_builtins": [bytes([2, 4, 0, 33, 33, 49, 50])],
    "choice": [b"abcd", b"ab\x00\x07\x00", b"abx"],
}
#: Byte values substituted at every position of a seed.
SUBSTITUTES = (0, 1, 2, 3, 4, 5, 6, 9, 11, 33, 48, 49, 97, 98, 255)

_FEATURE_PARSERS = {}


def _feature_parser(name: str) -> Parser:
    if name not in _FEATURE_PARSERS:
        _FEATURE_PARSERS[name] = Parser(
            FEATURE_GRAMMARS[name], blackboxes={"Pick": _pick}
        )
    parser = _FEATURE_PARSERS[name]
    assert parser.backend == "compiled"
    return parser


@pytest.mark.parametrize("name", sorted(FEATURE_SEEDS))
def test_failure_sites_around_seeds(name):
    """Every truncation and single-byte substitution of each seed."""
    parser = _feature_parser(name)
    rejected = 0
    for seed in FEATURE_SEEDS[name]:
        for cut in range(len(seed)):
            rejected += assert_diagnoses_agree(parser, seed[:cut])
        for position in range(len(seed)):
            for value in SUBSTITUTES:
                variant = seed[:position] + bytes([value]) + seed[position + 1 :]
                rejected += assert_diagnoses_agree(parser, variant)
    assert rejected > 0


@pytest.mark.parametrize("name", sorted(FEATURE_GRAMMARS))
@settings(max_examples=40, deadline=None)
@given(data=st.binary(max_size=12))
def test_failure_sites_on_random_input(name, data):
    assert_diagnoses_agree(_feature_parser(name), data)


def test_builtin_start_symbol():
    parser = Parser("S -> U32LE[0, 4] ;")
    assert assert_diagnoses_agree(parser, b"\x01\x02", start="U32LE")
    assert assert_diagnoses_agree(parser, b"12x", start="AsciiInt")


# ---------------------------------------------------------------------------
# Compiled entry points never run the reference diagnosis
# ---------------------------------------------------------------------------


@pytest.fixture
def no_reference_diagnosis(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a compiled parser ran the reference diagnosis")

    monkeypatch.setattr(diagnose._DiagRun, "__init__", refuse)


def test_compiled_entry_points_skip_the_reference(no_reference_diagnosis):
    parser = registry["dns"].build_parser()
    bad = samples.build_dns_response(answer_count=2)[:-4]
    for emit in ("tree", "spans", None):
        with pytest.raises(ParseFailure) as info:
            parser.parse(bad, emit=emit)
        assert type(info.value).__name__ == "TruncatedInput"
    session = parser.stream(compact=False)
    session.feed(bad)
    with pytest.raises(ParseFailure) as info:
        session.finish()
    assert type(info.value).__name__ == "TruncatedInput"
    with pytest.raises(ParseFailure) as info:
        parser.parse_lazy(bad)
    assert type(info.value).__name__ == "TruncatedInput"


def test_compiled_grammar_parse_uses_its_diagnosis(no_reference_diagnosis):
    compiled = compile_grammar(toy.FIGURE_1)
    with pytest.raises(ParseFailure) as info:
        compiled.parse(b"aaxxxbq")
    assert (type(info.value).__name__, info.value.offset) == ("GuardRejected", 6)
    assert compiled.diagnosis() is compiled.diagnosis()


def test_interpreted_parsers_keep_the_reference():
    parser = Parser(toy.FIGURE_1, backend="interpreted")
    assert parser._diagnosis_compiled() is None
    with pytest.raises(ParseFailure) as info:
        parser.parse(b"aaxxxbq")
    assert info.value.offset == 6


def test_reference_diagnosis_builds_no_fast_path_tables():
    parser = registry["elf"].build_parser(backend="interpreted")
    data = samples.build_elf(section_count=3, symbol_count=4, dynamic_entries=2)
    _run_diagnosis(parser, data[:100], parser.grammar.start)
    assert parser._interp_dispatch is None
    assert parser._shape_decoder_maps == {}


# ---------------------------------------------------------------------------
# Compile on first use
# ---------------------------------------------------------------------------


def test_tree_variant_compiles_on_first_tree_parse():
    parser = registry["dns"].build_parser()
    data = samples.build_dns_response(answer_count=1)
    assert parser.backend == "compiled"
    assert parser._compiled_tree is None
    assert parser.parse(data, emit=None) is True
    with pytest.raises(ParseFailure):
        parser.parse(data[:-1], emit=None)
    assert parser._compiled_tree is None  # validate and diagnose: no tree variant
    assert parser.parse(data) == Parser(
        registry["dns"].grammar_text, backend="interpreted"
    ).parse(data)
    assert parser._compiled_tree is not None


def test_backend_is_still_decided_in_the_constructor():
    # Where-rules plus two same-named arrays: the closure backend refuses.
    grammar = """
    S -> for i = 0 to 1 do A[i, i + 1] for i = 0 to 1 do A[i, i + 1] W[0, EOI]
         where { W -> Raw[0, EOI] ; } ;
    A -> U8[0, 1] ;
    """
    parser = Parser(grammar)
    assert parser.backend == "interpreted"
    assert parser._diagnosis_compiled() is None
