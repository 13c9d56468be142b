"""Finitely generated matrix groups: presentations, words, balls.

Words are freely reduced sequences of signed generator letters; the
constructor refuses unreduced input, and concatenation reduces.  Word
balls are breadth-first enumerations of reduced words with the matrix
images deduplicated: exactly (hashing integer forms; Python's dict
already audits every hash collision with a full comparison) when the
entries are exact scalars, by tolerance with a merge log otherwise.
Each distinct matrix keeps its shortest representative word, ties broken
lexicographically on (generator index, sign).

A ball is a prefix tree: every entry but the root (the empty word) keeps
the index of its parent entry and its last letter, and its word is the
parent's word plus that letter.  The tree is closed under prefixes
because only inserted words are expanded.  ``BallResult.images(phi)``
walks it once, multiplying each parent image by one generator image, so
any homomorphism is evaluated over the whole ball in O(N) products; the
fold is the one ``evaluate`` performs, so the images are bit-identical
to evaluating every word from scratch.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field

import numpy as np

from .cartan import GroupDesc, GroupElement, identity_element, to_float_array
from .errors import PreconditionError

FLOAT_DEDUP_TOL = 1e-8


class Word:
    """Freely reduced word: a tuple of (generator index, exponent +-1)."""

    __slots__ = ("letters",)

    def __init__(self, letters=()):
        letters = tuple((int(i), int(e)) for i, e in letters)
        for (i1, e1), (i2, e2) in zip(letters, letters[1:]):
            if i1 == i2 and e1 == -e2:
                raise PreconditionError(f"word is not freely reduced at {i1}")
        for i, e in letters:
            if e not in (1, -1):
                raise PreconditionError("letter exponents must be +-1")
            if i < 0:
                raise PreconditionError("negative generator index")
        self.letters = letters

    @classmethod
    def _trusted(cls, letters) -> "Word":
        """A word from letters already known to be reduced and well formed."""
        w = object.__new__(cls)
        w.letters = letters
        return w

    def __len__(self):
        return len(self.letters)

    def __iter__(self):
        return iter(self.letters)

    def __eq__(self, other):
        return isinstance(other, Word) and self.letters == other.letters

    def __hash__(self):
        return hash(self.letters)

    def __mul__(self, other: "Word") -> "Word":
        return reduce_letters(self.letters + other.letters)

    def inverse(self) -> "Word":
        return Word(tuple((i, -e) for i, e in reversed(self.letters)))

    def key(self):
        """Ordering key: length first, then lexicographic on letters."""
        return (len(self.letters), tuple((i, 0 if e == 1 else 1) for i, e in self.letters))

    def format(self, symbols) -> str:
        if not self.letters:
            return "1"
        out = []
        for i, e in self.letters:
            out.append(symbols[i] if e == 1 else symbols[i] + "^-1")
        return " ".join(out)

    def __repr__(self):
        return f"Word({self.letters!r})"


def reduce_letters(letters) -> Word:
    out = []
    for i, e in letters:
        if out and out[-1][0] == i and out[-1][1] == -e:
            out.pop()
        else:
            out.append((i, e))
    return Word(tuple(out))


def parse_word(text: str, symbols) -> Word:
    """Parse "a b^-1 a^2" over the given generator symbols."""
    index = {s: i for i, s in enumerate(symbols)}
    letters = []
    for tok in text.split():
        if tok in ("1", "e"):
            continue
        if "^" in tok:
            sym, exp = tok.split("^", 1)
            e = int(exp)
        else:
            sym, e = tok, 1
        if sym not in index:
            raise PreconditionError(f"unknown generator {sym!r}")
        sign = 1 if e > 0 else -1
        letters.extend([(index[sym], sign)] * abs(e))
    return reduce_letters(letters)


@dataclass(frozen=True)
class FreeStructure:
    kind: str = "free"


@dataclass(frozen=True)
class AmalgamStructure:
    """Amalgam data: which generators span each side, and the pairs of
    words (one per side's alphabet) presenting the common subgroup."""

    side1: tuple
    side2: tuple
    gamma0_pairs: tuple = ()
    kind: str = "amalgam"


@dataclass(frozen=True)
class HnnStructure:
    """HNN data: base generators, the stable letter, and the pairing
    word pairs (j1(c), j2(c)) in the base alphabet."""

    base: tuple
    stable: int
    pairings: tuple = ()
    kind: str = "hnn"


class Presentation:
    """Generator symbols and matrices plus combinatorial structure."""

    def __init__(self, symbols, matrices, group: GroupDesc, structure=None,
                 relators=()):
        self.symbols = tuple(symbols)
        self.group = group
        self.generators = tuple(
            m if isinstance(m, GroupElement) else GroupElement(m, group)
            for m in matrices
        )
        if len(self.generators) != len(self.symbols):
            raise PreconditionError("one matrix per generator symbol")
        self.structure = structure or FreeStructure()
        self.relators = tuple(relators)
        self._validate_structure()

    def _validate_structure(self):
        s = self.structure
        ngen = len(self.symbols)
        if isinstance(s, AmalgamStructure):
            side1, side2 = set(s.side1), set(s.side2)
            if side1 & side2 or side1 | side2 != set(range(ngen)):
                raise PreconditionError("amalgam sides must partition the generators")
        elif isinstance(s, HnnStructure):
            if s.stable in s.base:
                raise PreconditionError("stable letter cannot be a base generator")
            if set(s.base) | {s.stable} != set(range(ngen)):
                raise PreconditionError("HNN base + stable letter must cover generators")
            nu = self.generators[s.stable]
            inc = inclusion(self)
            for w1, w2 in s.pairings:
                lhs = nu @ evaluate(w1, inc) @ nu.inv()
                rhs = evaluate(w2, inc)
                if not _elements_close(lhs, rhs):
                    raise PreconditionError(
                        f"HNN pairing fails on {w1.format(self.symbols)}"
                    )

    @property
    def rank(self) -> int:
        return len(self.symbols)


class Homomorphism:
    """Generator-image assignment into a target group."""

    def __init__(self, images, group: GroupDesc):
        self.group = group
        self.images = tuple(
            m if isinstance(m, GroupElement) else GroupElement(m, group)
            for m in images
        )
        self._inverses = tuple(g.inv() for g in self.images)

    def image(self, index: int, exponent: int) -> GroupElement:
        return self.images[index] if exponent == 1 else self._inverses[index]


def inclusion(P: Presentation) -> Homomorphism:
    """The homomorphism sending each generator to its own matrix."""
    return Homomorphism(P.generators, P.group)


def conjugate_homomorphism(phi: Homomorphism, g: GroupElement) -> Homomorphism:
    gi = g.inv()
    return Homomorphism(tuple(g @ h @ gi for h in phi.images), phi.group)


def _identity_like(phi: Homomorphism) -> GroupElement:
    """Identity element in the same arithmetic as phi's images."""
    from fractions import Fraction

    n = phi.group.size
    if all(g.is_exact for g in phi.images):
        rows = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        return GroupElement(rows, phi.group, check=False)
    return identity_element(phi.group)


def evaluate(w: Word, phi: Homomorphism) -> GroupElement:
    out = _identity_like(phi)
    for i, e in w:
        if i >= len(phi.images):
            raise PreconditionError(f"generator index {i} out of range")
        out = out @ phi.image(i, e)
    return out


def _elements_close(a: GroupElement, b: GroupElement, tol=1e-9) -> bool:
    if a.is_exact and b.is_exact:
        return a == b
    fa, fb = to_float_array(a), to_float_array(b)
    return bool(np.abs(fa - fb).max() <= tol)


def _max_deviation(a: GroupElement, b: GroupElement) -> float:
    if a.is_exact and b.is_exact:
        return 0.0 if a == b else max(
            abs(float(x - y)) for ra, rb in zip(a.matrix, b.matrix)
            for x, y in zip(ra, rb)
        )
    fa, fb = to_float_array(a), to_float_array(b)
    return float(np.abs(fa - fb).max())


@dataclass
class RelatorReport:
    ok: bool
    max_deviation: float
    failures: list = dc_field(default_factory=list)


def check_relators(P: Presentation, phi: Homomorphism, tol=1e-9) -> RelatorReport:
    """Evaluate relators, amalgam pairs, and HNN pairings under phi."""
    failures = []
    max_dev = 0.0
    ident = _identity_like(phi)

    def record(name, lhs, rhs):
        nonlocal max_dev
        dev = _max_deviation(lhs, rhs)
        max_dev = max(max_dev, dev)
        if not _elements_close(lhs, rhs, tol):
            failures.append((name, dev))

    for w in P.relators:
        record(f"relator {w.format(P.symbols)}", evaluate(w, phi), ident)
    s = P.structure
    if isinstance(s, AmalgamStructure):
        for w1, w2 in s.gamma0_pairs:
            record(
                f"amalgam pair {w1.format(P.symbols)} = {w2.format(P.symbols)}",
                evaluate(w1, phi),
                evaluate(w2, phi),
            )
    elif isinstance(s, HnnStructure):
        nu = phi.images[s.stable]
        nui = nu.inv()
        for w1, w2 in s.pairings:
            record(
                f"hnn pairing {w1.format(P.symbols)}",
                nu @ evaluate(w1, phi) @ nui,
                evaluate(w2, phi),
            )
    return RelatorReport(not failures, max_dev, failures)


@dataclass
class BallEntry:
    word: Word
    element: GroupElement
    parent: int = -1  # index of the entry for word minus its last letter
    letter: tuple | None = None  # last (generator index, sign); None at the root


@dataclass
class BallResult:
    entries: list
    complete: bool
    merges: list = dc_field(default_factory=list)

    def __len__(self):
        return len(self.entries)

    def elements(self):
        return [e.element for e in self.entries]

    def images(self, phi: Homomorphism) -> list:
        """phi's image of every ball word, in entry order, by one pass
        over the prefix tree; equal bit for bit to ``evaluate``."""
        out = [_identity_like(phi)]
        for e in self.entries[1:]:
            if e.letter[0] >= len(phi.images):
                raise PreconditionError(f"generator index {e.letter[0]} out of range")
            out.append(out[e.parent] @ phi.image(*e.letter))
        return out

    def require_complete(self) -> "BallResult":
        """The ball itself; PreconditionError if max_elements cut it short."""
        if not self.complete:
            raise PreconditionError(
                f"word ball truncated at {len(self.entries)} elements "
                "before reaching the requested radius"
            )
        return self


def _float_key_candidates(g: GroupElement):
    a = to_float_array(g)
    flat = a.reshape(-1)
    j = int(np.abs(flat).argmax())
    lead = flat[j]
    if isinstance(lead, complex) or np.iscomplexobj(a):
        phase = lead / abs(lead) if lead != 0 else 1.0
        a = a / phase
    elif lead < 0:
        a = -a
    scaled = a / FLOAT_DEDUP_TOL / 4
    base = np.floor(scaled)
    return a, [tuple(np.asarray(base + off).reshape(-1))
               for off in (0.0, 0.5)]


def word_ball(
    P: Presentation,
    phi: Homomorphism,
    radius: int,
    max_elements: int = 2_000_000,
) -> BallResult:
    """All distinct images of freely reduced words of length <= radius.

    BFS in length order; among equal lengths the expansion is
    lexicographic in (generator index, sign), so the stored shortest
    representatives are deterministic.  Exceeding ``max_elements``
    returns the partial ball flagged incomplete.
    """
    if radius < 0:
        raise PreconditionError("radius must be >= 0")
    exact = all(g.is_exact for g in phi.images)
    identity = _identity_like(phi)
    entries = []
    merges = []
    seen = {}
    float_reps = []  # (array, entry index) for tolerance audit

    def try_insert(word, element, parent=-1, letter=None):
        if exact:
            if element in seen:
                return False
            seen[element] = len(entries)
            entries.append(BallEntry(word, element, parent, letter))
            return True
        arr, keys = _float_key_candidates(element)
        for key in keys:
            hit = seen.get(key)
            if hit is not None:
                ref = float_reps[hit]
                if np.abs(arr - ref).max() <= FLOAT_DEDUP_TOL:
                    merges.append((word, entries[hit].word))
                    return False
        # audit against all near keys failed; linear check on collisions only
        idx = len(entries)
        for key in keys:
            seen.setdefault(key, idx)
        entries.append(BallEntry(word, element, parent, letter))
        float_reps.append(arr)
        return True

    try_insert(Word(), identity)
    frontier = [0]
    letters = [(i, e) for i in range(P.rank) for e in (1, -1)]
    for _ in range(radius):
        new_frontier = []
        for k in frontier:
            word, element = entries[k].word, entries[k].element
            for i, e in letters:
                if word.letters and word.letters[-1] == (i, -e):
                    continue
                # reduced: the letter cancelling the last one was skipped
                w2 = Word._trusted(word.letters + ((i, e),))
                g2 = element @ phi.image(i, e)
                if try_insert(w2, g2, k, (i, e)):
                    new_frontier.append(len(entries) - 1)
                if len(entries) > max_elements:
                    return BallResult(entries, complete=False, merges=merges)
        frontier = new_frontier
    return BallResult(entries, complete=True, merges=merges)
