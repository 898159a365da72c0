"""Seeded inputs and their reference verdicts.

Every workload draws from one corpus: ``PER_FORMAT`` inputs for each of
the six Figure 13 formats, built by the :mod:`repro.samples` builders
with sizes around the ``bench_compiler_speedup.py`` parameters.  Sizes
are *stratified*: input ``i`` of a format draws its size parameter from
the ``i``-th of ``PER_FORMAT`` equal slices of the range, so two seeds
give different files of nearly the same total cost.  The seed also picks
each builder's content seed and the op order.

``lib-triage`` adds ``MUTANTS_PER_INPUT`` mutants per corpus input, made
by this module's own mutator (truncation, header-byte flip, length-field
overwrite).  A mutant is kept only when the reference rejects it with a
structured :class:`~repro.core.errors.ParseFailure`; mutants the
reference still accepts, and ones whose blackbox raises (a flipped byte
inside a ZIP member's deflate stream), are redrawn.  So every mutant is an expected
rejection, and :func:`Corpus.expected_rejects` is their count.

The reference is the tree-walking interpreter with its optimisations off
(``backend="interpreted", first_byte_dispatch=False,
bulk_fixed_shape=False``).  :func:`prepare` runs in a child process, so
neither the oracle's time nor its memory lands in the measured process.
"""

from __future__ import annotations

import json
import os
import pickle
import random
import struct
import sys
from dataclasses import dataclass
from typing import Dict, List, Tuple

FORMATS = ("dns", "ipv4", "gif", "elf", "pe", "zip")
PER_FORMAT = 32
#: Mutants per valid input.  The cost of a rejection varies a lot with
#: where the damage is, so ``lib-triage`` averages over many of them.
MUTANTS_PER_INPUT = 4

#: Redraws allowed per mutant before the seed is declared unusable, and
#: how many of them stay in the mutant's kind and position stratum.
MAX_MUTANT_DRAWS = 200
STRATUM_DRAWS = 20
#: Byte flips land in each format's fixed header (this many leading
#: bytes): the grammars ignore most payload bytes, so a flip there is
#: seldom a rejection and would only cost redraws.
HEADER_BYTES = {"dns": 12, "ipv4": 20, "gif": 13, "elf": 64, "pe": 64, "zip": 30}

#: Header length/count/offset fields per format: (offset, struct code).
#: A negative offset counts from the end of the file (the ZIP
#: end-of-central-directory record is the last 22 bytes).
LENGTH_FIELDS: Dict[str, Tuple[Tuple[int, str], ...]] = {
    "dns": ((4, ">H"), (6, ">H"), (10, ">H")),
    "ipv4": ((0, "B"), (2, ">H")),
    "gif": ((6, "<H"), (10, "B")),
    "elf": ((0x28, "<Q"), (0x3C, "<H")),
    "pe": ((0x3C, "<I"),),
    "zip": ((-12, "<H"), (-10, "<I"), (-6, "<I")),
}


@dataclass
class Corpus:
    """Inputs plus the reference verdict of each.

    ``inputs[i]`` is ``(format, data, is_mutant)``.  ``verdicts[i]`` is
    ``("tree", canonical(jsonable_tree))`` for an accepted input and
    ``("reject", error_class_name, offset)`` for a rejected one.  Trees are
    kept as strings so that holding them adds nothing to the measured
    process's garbage-collection work.
    """

    inputs: List[Tuple[str, bytes, bool]]
    verdicts: List[tuple]

    def indices(self, mutants: bool) -> List[int]:
        """Indices of the valid inputs; with ``mutants``, every mutant too
        and each valid input ``MUTANTS_PER_INPUT`` times, a 50/50 mix."""
        valid = [i for i, (_, _, m) in enumerate(self.inputs) if not m]
        if not mutants:
            return valid
        return valid * MUTANTS_PER_INPUT + [i for i, (_, _, m) in enumerate(self.inputs) if m]

    def expected_rejects(self) -> int:
        return sum(1 for v in self.verdicts if v[0] == "reject")

    def first_of_each_format(self) -> Dict[str, int]:
        first: Dict[str, int] = {}
        for i, (fmt, _, mutant) in enumerate(self.inputs):
            if not mutant:
                first.setdefault(fmt, i)
        return first


def build_input(fmt: str, u: float, rng: random.Random) -> bytes:
    """One input of ``fmt``; ``u`` in [0, 1) scales its size."""
    from repro import samples

    content_seed = rng.randrange(1, 1 << 30)
    if fmt == "dns":
        return samples.build_dns_response(
            answer_count=8 + int(16 * u),
            additional_count=rng.randrange(3),
            transaction_id=rng.randrange(1 << 16),
        )
    if fmt == "ipv4":
        return samples.build_ipv4_udp_packet(
            payload_size=700 + int(1400 * u),
            options_words=rng.randrange(3),
            seed=content_seed,
        )
    if fmt == "gif":
        return samples.build_gif(
            frame_count=4 + int(8 * u), bytes_per_frame=2048, seed=content_seed
        )
    if fmt == "elf":
        return samples.build_elf(
            section_count=8 + int(16 * u),
            symbol_count=32 + int(64 * u),
            dynamic_entries=16,
            seed=content_seed,
        )
    if fmt == "pe":
        return samples.build_pe(
            section_count=4 + int(8 * u), section_size=2048, seed=content_seed
        )
    if fmt == "zip":
        return samples.build_zip(
            member_count=4 + int(8 * u), member_size=2048, seed=content_seed
        )
    raise ValueError(f"unknown format {fmt!r}")


def mutate(fmt: str, data: bytes, kind: int, u: float, rng: random.Random) -> bytes:
    """One corruption of ``data``: truncate (``kind`` 0), flip a header
    byte (1), or lie in a length field (2).  ``u`` in [0, 1) places the cut
    or the flip."""
    if kind == 0:
        return data[: 1 + int(u * (len(data) - 1))]
    mutated = bytearray(data)
    if kind == 1:
        mutated[int(u * min(len(mutated), HEADER_BYTES[fmt]))] ^= rng.randrange(1, 256)
        return bytes(mutated)
    offset, code = rng.choice(LENGTH_FIELDS[fmt])
    if offset < 0:
        offset += len(data)
    limit = (1 << (8 * struct.calcsize(code))) - 1
    value = rng.choice((limit, min(limit, len(data) + rng.randrange(1, 4096)), 0))
    struct.pack_into(code, mutated, offset, value)
    return bytes(mutated)


def canonical(jsonable_tree) -> str:
    """The comparison form of a ``tree_to_jsonable`` result."""
    return json.dumps(jsonable_tree, sort_keys=True, separators=(",", ":"))


def _reference_parsers():
    from repro.formats import registry

    return {
        fmt: registry[fmt].build_parser(
            backend="interpreted", first_byte_dispatch=False, bulk_fixed_shape=False
        )
        for fmt in FORMATS
    }


def _verdict(parser, data: bytes, mutant: bool = False):
    """The reference verdict, or ``None`` when the input makes it raise
    something other than a structured parse failure.  A ``mutant`` the
    reference accepts gets just ``("accept",)``: that draw is discarded."""
    from repro.core.errors import IPGError, ParseFailure
    from repro.core.parsetree import tree_to_jsonable

    try:
        if mutant and parser.try_parse(data, emit=None) is not None:
            return ("accept",)
        return ("tree", canonical(tree_to_jsonable(parser.parse(data))))
    except ParseFailure as exc:
        return ("reject", type(exc).__name__, exc.offset)
    except IPGError:
        return None


def prepare(seed: int, mutants: bool) -> Corpus:
    """Build the corpus for ``seed`` and compute every reference verdict;
    the mutants, the costly part, only when asked."""
    rng = random.Random(seed)
    references = _reference_parsers()
    inputs: List[Tuple[str, bytes, bool]] = []
    verdicts: List[tuple] = []
    for fmt in FORMATS:
        for i in range(PER_FORMAT):
            data = build_input(fmt, (i + rng.random()) / PER_FORMAT, rng)
            verdict = _verdict(references[fmt], data)
            if verdict is None or verdict[0] != "tree":
                raise RuntimeError(f"reference rejects a {fmt} corpus input")
            inputs.append((fmt, data, False))
            verdicts.append(verdict)
    if mutants:
        _add_mutants(inputs, verdicts, references, rng)
    return Corpus(inputs, verdicts)


def _add_mutants(inputs, verdicts, references, rng: random.Random) -> None:
    """Append ``MUTANTS_PER_INPUT`` rejected mutants per valid input."""
    # Each format's mutants cycle through the three kinds and through its
    # inputs, and each kind's cut or flip positions are stratified over the
    # file like the sizes above: a cut late in a file costs a near-full
    # parse plus a diagnostic re-run, so unstratified positions would make
    # the workload's cost depend on the draw.
    valid = len(inputs)
    count = PER_FORMAT * MUTANTS_PER_INPUT
    strata = -(-count // 3)
    for first in range(0, valid, PER_FORMAT):
        fmt = inputs[first][0]
        for j in range(count):
            data = inputs[first + j % PER_FORMAT][1]
            for draw in range(MAX_MUTANT_DRAWS):
                # Stay in the stratum for a while, then take any kind and
                # place (a format may ignore a field, or a flip, anywhere).
                if draw < STRATUM_DRAWS:
                    mutant = mutate(fmt, data, j % 3, (j // 3 + rng.random()) / strata, rng)
                else:
                    mutant = mutate(fmt, data, rng.randrange(3), rng.random(), rng)
                verdict = _verdict(references[fmt], mutant, mutant=True)
                if verdict is not None and verdict[0] == "reject":
                    break
            else:
                raise RuntimeError(f"no rejected {fmt} mutant in {MAX_MUTANT_DRAWS} draws")
            inputs.append((fmt, mutant, True))
            verdicts.append(verdict)


def op_order(indices: List[int], rng: random.Random):
    """Endless op sequence: each pass is a fresh shuffle of ``indices``,
    so every input runs equally often whatever the run length."""
    order = list(indices)
    while True:
        rng.shuffle(order)
        yield from order


if __name__ == "__main__":
    # ``python3 corpus.py SEED MUTANTS``: the corpus, pickled to stdout.
    # Pickled through the imported module, so that the class it names is
    # ``corpus.Corpus`` rather than ``__main__.Corpus``.
    here = os.path.dirname(os.path.abspath(__file__))
    sys.path.insert(0, os.path.join(os.path.dirname(here), "src"))
    import corpus as _module

    result = _module.prepare(int(sys.argv[1]), bool(int(sys.argv[2])))
    sys.stdout.buffer.write(pickle.dumps(result, protocol=pickle.HIGHEST_PROTOCOL))
