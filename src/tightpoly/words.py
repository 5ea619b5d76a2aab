"""Words over involutory generators, presentations, and relator builders.

A word is a tuple of generator indices; generators are involutions, so a
letter is its own inverse and the inverse of a word is the reversed tuple.
Schlafli symbols are plain tuples of integers >= 2.

Builders emit relators in a fixed canonical order (involutions, then
commuting pairs by index, then consecutive-product relators by index, then
any extra relators), so presentation equality is plain syntactic equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Sequence

from .errors import AdjacentOddPair, InvariantViolation, PresentationParseError

Word = tuple[int, ...]


@dataclass(frozen=True)
class Presentation:
    ngens: int
    relators: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(self, "relators", tuple(tuple(w) for w in self.relators))
        if self.ngens < 1:
            raise ValueError("a presentation needs at least one generator")
        for w in self.relators:
            for letter in w:
                if not 0 <= letter < self.ngens:
                    raise ValueError(f"letter {letter} out of range in relator {w}")


def involution_letter(w: Word) -> int | None:
    """The generator g when w is the involution relator (g, g), else None."""
    if len(w) == 2 and w[0] == w[1]:
        return w[0]
    return None


def rotations(w: Word) -> Iterator[Word]:
    """The rotations of w in order: the t-th is w[t:] + w[:t], w rotated by t.

    The census search scans every rotation of its relators. An iterator, so
    that a long relator (x_i x_j)^p costs memory linear in p, not quadratic.
    Which rotations equal w or reversed(w) is `closing_shifts`'s question,
    answered without building any.
    """
    return (w[t:] + w[:t] for t in range(len(w)))


def closing_shifts(w: Word) -> tuple[int, ...]:
    """The t in 1..|w|-1, in increasing order, at which the rotation of w by
    t is w or reversed(w): the positions on w's cycle where w closes again.

    In O(|w|), with no rotation built. `str.find` gives the period p of w,
    the least t > 0 whose rotation is w, as in `_cyclic_class`, so the
    rotations equal to w are at the multiples of p. The rotation by t is reversed(w) exactly where
    reversed(w) occurs in w + w, and two such t differ by a rotation that
    fixes reversed(w), whose period is p too: they are q + k·p, with q the
    first occurrence.
    """
    if not w:
        return ()
    s = "".join(map(chr, w))
    period = (s + s).find(s, 1)
    first = (s + s).find(s[::-1])
    shifts = range(period, len(s), period)
    if first > 0:  # reversed(w) is a rotation of w, but not w itself
        return tuple(sorted((*shifts, *range(first, len(s), period))))
    return tuple(shifts)


def _cyclic_class(w: Word) -> str:
    """The least rotation of w or of its inverse, reversed(w), one character
    per letter: one name for all the cyclic words that have w's normal
    closure. Only the rotations by less than w's period differ, and
    `str.find` gives the period, so a relator (x_i x_j)^p costs two
    rotations each way, not 2p."""
    s = "".join(map(chr, w))
    period = (s + s).find(s, 1)
    return min((u[t:] + u[:t] for u in (s, s[::-1]) for t in range(period)), default=s)


def check_mirrored(pres: Presentation, mirrored: Presentation) -> None:
    """Raise InvariantViolation unless `mirrored` has `pres`'s relators
    under x_i -> x_{n-1-i}, each taken as a cyclic word up to rotation and
    inversion.

    Then the two relator sets have one normal closure under that map, so
    y_i -> x_{n-1-i} is an isomorphism from `mirrored`'s group onto
    `pres`'s, and a regular rep of `pres` with its generators in reverse
    order is a regular rep of `mirrored`.
    """
    last = pres.ngens - 1
    image = {_cyclic_class(tuple(last - g for g in w)) for w in pres.relators}
    if mirrored.ngens != pres.ngens or image != {_cyclic_class(w) for w in mirrored.relators}:
        raise InvariantViolation("the reversed tuple's relators are not the mirrored relators of the tuple")


def _require_involutions(pres: Presentation) -> None:
    have = {involution_letter(w) for w in pres.relators}
    missing = [g for g in range(pres.ngens) if g not in have]
    if missing:
        raise ValueError(
            f"presentation lacks involution relators for generators {missing}; "
            "enumeration assumes every generator squares to the identity"
        )


def validate_symbol(sym: Sequence[int]) -> tuple[int, ...]:
    """Check entries are integers >= 2 and return the symbol as a tuple."""
    entries = tuple(sym)
    if len(entries) < 1:
        raise ValueError("empty Schlafli symbol")
    for p in entries:
        if not isinstance(p, int) or isinstance(p, bool):
            raise ValueError(f"non-integer entry {p!r}")
        if p < 2:
            raise ValueError(f"entry {p} < 2 (infinite entries are not supported)")
    return entries


def coxeter_presentation(sym: Sequence[int]) -> Presentation:
    """String Coxeter presentation [p_1, ..., p_{n-1}] on n generators."""
    entries = validate_symbol(sym)
    n = len(entries) + 1
    rels: list[Word] = [(i, i) for i in range(n)]
    for i in range(n):
        for j in range(i + 2, n):
            rels.append((i, j) * 2)
    for i, p in enumerate(entries):
        rels.append((i, i + 1) * p)
    return Presentation(n, tuple(rels))


def gamma_pq_presentation(p: int, q: int) -> Presentation:
    """[p, q] with the extra relator (x0 x1 x2 x1 x2)^2."""
    if p < 2 or q < 2:
        raise ValueError(f"need p, q >= 2, got ({p}, {q})")
    pres = coxeter_presentation((p, q))
    return Presentation(3, pres.relators + ((0, 1, 2, 1, 2) * 2,))


def _tuple_extra_relator(i: int, p_i: int, p_next: int) -> Word:
    # i is the 1-based slot; letters are the generator indices i-1, i, i+1.
    a, b, c = i - 1, i, i + 1
    if p_i % 2 == 0 and p_next % 2 == 0:
        return (a, b, c, b) * 2
    if p_i % 2 == 1 and p_next % 2 == 0:
        return (a, b, c, b, c) * 2
    if p_i % 2 == 0 and p_next % 2 == 1:
        return (c, b, a, b, a) * 2
    raise AdjacentOddPair(i - 1)


def gamma_tuple_presentation(sym: Sequence[int]) -> Presentation:
    """[p_1, ..., p_{n-1}] plus one extra relator per adjacent entry pair.

    Defined whenever no two adjacent entries are both odd; admissibility of
    the tuple is not required here.
    """
    entries = validate_symbol(sym)
    pres = coxeter_presentation(entries)
    extra = tuple(
        _tuple_extra_relator(i, entries[i - 1], entries[i])
        for i in range(1, len(entries))
    )
    return Presentation(pres.ngens, pres.relators + extra)


LAMBDA_LONG_RELATOR: Word = (0, 1, 2, 1, 0, 1, 2, 1, 2)


def lambda_k_presentation(k: int) -> Presentation:
    """[3k, 4] plus the 9-letter relator; k must be odd and positive."""
    if k < 1 or k % 2 == 0:
        raise ValueError(f"need odd k >= 1, got {k}")
    pres = coxeter_presentation((3 * k, 4))
    return Presentation(3, pres.relators + (LAMBDA_LONG_RELATOR,))


@dataclass(frozen=True)
class Admissibility:
    ok: bool
    odd_index: int | None = None        # 0-based slot of the odd entry
    violating_index: int | None = None  # 0-based slot of the offending neighbor

    def __bool__(self) -> bool:
        return self.ok


def is_admissible(sym: Sequence[int]) -> Admissibility:
    """Every odd entry's existing neighbors must be even divisors of twice it.

    Returns the first violation scanning odd entries left to right, left
    neighbor before right.
    """
    entries = validate_symbol(sym)
    for i, p in enumerate(entries):
        if p % 2 == 0:
            continue
        for j in (i - 1, i + 1):
            if 0 <= j < len(entries):
                nb = entries[j]
                if nb % 2 != 0 or (2 * p) % nb != 0:
                    return Admissibility(False, odd_index=i, violating_index=j)
    return Admissibility(True)


def admissibility_message(sym: Sequence[int], adm: Admissibility) -> str:
    entries = tuple(sym)
    i, j = adm.odd_index, adm.violating_index
    if i is None or j is None:
        raise ValueError(f"no violation to describe for {entries}: {adm!r}")
    return (
        f"p{j + 1}={entries[j]} is not an even divisor of "
        f"2p{i + 1}={2 * entries[i]}"
    )


def write_presentation(pres: Presentation) -> str:
    """Plain-text format: `gens N` then one `rel i j k ...` line per relator."""
    lines = [f"gens {pres.ngens}"]
    lines.extend("rel " + " ".join(str(x) for x in w) for w in pres.relators)
    return "\n".join(lines) + "\n"


def _numeral(text: str) -> int:
    """The value of a numeral as write_presentation writes it: ASCII digits
    with no sign, no `_` and no leading zero. Anything else raises
    ValueError, so every accepted text writes back byte-equal."""
    if text.isascii() and text.isdigit():
        value = int(text)
        if str(value) == text:
            return value
    raise ValueError(f"not a canonical decimal numeral: {text!r}")


def parse_presentation(text: str) -> Presentation:
    """Inverse of write_presentation; byte-exact round trip for valid input."""
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        raise PresentationParseError(len(lines), "missing trailing newline")
    lines = lines[:-1]
    if not lines:
        raise PresentationParseError(1, "empty file")
    head = lines[0].split(" ")
    if len(head) != 2 or head[0] != "gens":
        raise PresentationParseError(1, f"expected 'gens N', got {lines[0]!r}")
    try:
        ngens = _numeral(head[1])
    except ValueError:
        raise PresentationParseError(1, f"bad generator count {head[1]!r}") from None
    if ngens < 1:
        raise PresentationParseError(1, f"bad generator count {ngens}")
    rels = []
    for no, line in enumerate(lines[1:], start=2):
        parts = line.split(" ")
        if parts[0] != "rel" or len(parts) < 2 or "" in parts:
            raise PresentationParseError(no, f"expected 'rel i j ...', got {line!r}")
        try:
            w = tuple(map(_numeral, parts[1:]))
        except ValueError:
            raise PresentationParseError(no, f"bad letter in {line!r}") from None
        for letter in w:
            if not 0 <= letter < ngens:
                raise PresentationParseError(no, f"letter {letter} out of range")
        rels.append(w)
    return Presentation(ngens, tuple(rels))
