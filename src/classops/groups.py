"""Finite groups as indexed multiplication tables, plus the group algebra.

Conventions used throughout the package:

* Elements of a group of order n are the indices 0..n-1, with 0 the identity.
* Permutations are tuples of images ``p[x] = p(x)`` (0-based points) and are
  composed as functions, ``(p * q)(x) = p(q(x))``.
* A group-algebra element is a plain complex ndarray of length |G| holding the
  coefficient function g -> phi(g).
* The product of the group algebra is the unnormalized convolution
  ``(phi psi)(x) = sum_g phi(g) psi(g^-1 x)``, whose matrix is
  ``left_regular_matrix(group, phi)``.
* Conjugacy classes are the orbits of the generators' conjugation action,
  found for all classes in one pass (``conjugacy_classes``), which also gives
  ``FiniteGroup.class_of``; each class makes its centralizer and coset
  representatives on first read, so a one-class run makes only its own.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

__all__ = [
    "GroupConstructionError",
    "FiniteGroup",
    "ConjugacyClass",
    "DEFAULT_ORDER_CAP",
    "build_group",
    "cyclic_group",
    "dihedral_group",
    "symmetric_group",
    "quaternion_group",
    "group_from_generators",
    "group_from_table",
    "conjugacy_classes",
    "left_regular_matrix",
    "parse_cycles",
    "cycle_notation",
]

DEFAULT_ORDER_CAP = 10080


class GroupConstructionError(ValueError):
    """Invalid group descriptor, broken table axioms, or oversized closure."""


# ---------------------------------------------------------------------------
# permutation helpers
# ---------------------------------------------------------------------------

_CYCLE_RE = re.compile(r"\(([^()]*)\)")
_POINT_RE = re.compile(r"[0-9]+")   # ASCII digits only: int() also takes "2_0" and non-ASCII digits
_CAP_DIGITS = len(str(DEFAULT_ORDER_CAP))


def parse_cycles(text: str, degree: int | None = None) -> tuple[int, ...]:
    """Parse cycle notation like ``"(1 2)(3 4)"`` into a 0-based image tuple.

    Points inside cycles are 1-based ASCII digit strings, separated by spaces
    or commas, and at most ``DEFAULT_ORDER_CAP`` (the degree of the largest
    catalog cyclic group), checked before the image is allocated.  The empty
    string or ``"e"`` denotes the identity.
    """
    text = text.strip()
    cycles: list[list[int]] = []
    if text and text not in ("e", "()"):
        body = _CYCLE_RE.findall(text)
        if not body or _CYCLE_RE.sub("", text).strip():
            raise GroupConstructionError(f"cannot parse cycle notation: {text!r}")
        for chunk in body:
            pts = [p for p in re.split(r"[\s,]+", chunk.strip()) if p]
            bad = [p for p in pts if not _POINT_RE.fullmatch(p)]
            if bad:
                raise GroupConstructionError(f"point {bad[0]!r} is not a decimal number in {text!r}")
            # a point longer than the cap's digits is above it; int() never sees it
            cyc = [int(p) - 1 if len(p.lstrip("0")) <= _CAP_DIGITS else DEFAULT_ORDER_CAP for p in pts]
            if any(p < 0 for p in cyc):
                raise GroupConstructionError(f"points must be >= 1 in {text!r}")
            if any(p >= DEFAULT_ORDER_CAP for p in cyc):
                raise GroupConstructionError(f"points must be <= {DEFAULT_ORDER_CAP} in {text!r}")
            if len(set(cyc)) != len(cyc):
                raise GroupConstructionError(f"repeated point in cycle {chunk!r}")
            cycles.append(cyc)
    deg = max([degree or 1] + [p + 1 for c in cycles for p in c])
    image = list(range(deg))
    for cyc in cycles:
        for i, p in enumerate(cyc):
            image[p] = cyc[(i + 1) % len(cyc)]
    return tuple(image)


def cycle_notation(perm: tuple[int, ...]) -> str:
    """Inverse of :func:`parse_cycles` (fixed points omitted, identity = 'e')."""
    seen, parts = [False] * len(perm), []
    for start in range(len(perm)):
        if not seen[start] and perm[start] != start:
            cyc, nxt = [start], perm[start]
            while nxt != start:
                cyc.append(nxt)
                nxt = perm[nxt]
            for p in cyc:
                seen[p] = True
            parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) or "e"


def _cycle_labels(perms: np.ndarray) -> list[str]:
    """:func:`cycle_notation` of every row of ``perms`` in one pass: the least point
    of each cycle by pointer doubling, then every cycle walked from it at once."""
    n, degree = perms.shape
    points, image = np.arange(n * degree), (perms.astype(np.int64) + degree * np.arange(n)[:, None]).ravel()
    least, jump = points, image
    for _ in range((degree - 1).bit_length()):
        least, jump = np.minimum(least, least[jump]), jump[jump]
    moved = image != points
    point = np.flatnonzero(moved & (least == points))   # cycle starts, by element, then by point
    length = np.bincount(least[moved], minlength=n * degree)[point]
    ends = np.cumsum(np.bincount(point // degree, length, minlength=n)).astype(np.int64).tolist()
    code, at = np.empty(int(length.sum()), dtype=np.int64), np.cumsum(length) - length
    for step in range(int(length.max(initial=0))):   # code 3p + 0, 1, 2: "(p ", "p ", "p)"
        code[at + step] = 3 * (point % degree) + np.where(step == 0, 0, 1 + (length == step + 1))
        keep = length > step + 1
        point, length, at = image[point[keep]], length[keep], at[keep]
    names = [f"{a}{p}{b}" for p in range(1, degree + 1) for a, b in (("(", " "), ("", " "), ("", ")"))]
    text = list(map(names.__getitem__, code.tolist()))
    return ["".join(text[a:b]) or "e" for a, b in zip([0] + ends[:-1], ends)]


# ---------------------------------------------------------------------------
# core types
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ConjugacyClass:
    """A conjugacy class C0: its least member ``base_element`` g0 and its
    ``members`` in ascending order, with the centralizer Z0 of g0 and the
    coset representatives made from the group's table on first read.

    ``centralizer`` lists Z0 in ascending order.  ``coset_reps[k]`` is the
    smallest element index x with ``x g0 x^-1 = members[k]``; it represents
    the coset x Z0 under the bijection G/Z0 -> C0, so class functions are
    indexed exactly like ``members``.
    """

    base_element: int
    members: tuple[int, ...]
    _table: np.ndarray = field(repr=False, compare=False)
    _inverse: np.ndarray = field(repr=False, compare=False)

    @property
    def size(self) -> int:
        return len(self.members)

    @cached_property
    def centralizer(self) -> tuple[int, ...]:
        t, g0 = self._table, self.base_element
        return tuple(np.flatnonzero(t[:, g0] == t[g0]).tolist())

    @cached_property
    def coset_reps(self) -> tuple[int, ...]:
        t = self._table
        conj_by = t[t[:, self.base_element], self._inverse]   # conj_by[x] = x g0 x^-1
        return tuple(np.unique(conj_by, return_index=True)[1].tolist())   # first x reaching each member


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Element 0 is the identity.  Every group keeps the element index of each
    generator slot (``generators``) and the breadth-first word of every other
    element (``bfs_words``: element -> (parent, slot of the generator applied
    on the right), parents first), along which ``extend_from_generators``
    extends generator images to the whole group.  A closure keeps its
    permutations as one (|G|, degree) unsigned-int array (``perms``, rows
    big-endian so that their bytes sort like the images) and formats an element's cycle-notation label only when asked
    (``label``; ``labels`` lists them all, made on first use); a table
    group's labels are given or its indices, and its generators are greedy
    (``group_from_table``).  ``class_of`` holds the class index of every
    element, made with the classes.
    """

    def __init__(
        self,
        mult_table: np.ndarray,
        labels: list[str] | None = None,
        name: str = "G",
        family: tuple | None = None,
        generators: list[int] | None = None,
        bfs_words: dict[int, tuple[int, int]] | None = None,
        perms: np.ndarray | None = None,
    ):
        table = np.asarray(mult_table, dtype=np.int64)
        n = table.shape[0]
        if table.shape != (n, n):
            raise GroupConstructionError("multiplication table must be square")
        if n == 0:
            raise GroupConstructionError("group cannot be empty")
        self.order = n
        self.mult_table = table
        self.name = name
        self.family = family
        self.generators = generators
        self.bfs_words = bfs_words
        self.perms = perms
        self._labels: list[str] | None = None
        if perms is None:
            self._labels = list(labels) if labels is not None else [str(i) for i in range(n)]
            if len(self._labels) != n:
                raise GroupConstructionError("labels length does not match order")
        self.inverse_table = self._find_inverses()
        self._classes: list[ConjugacyClass] | None = None
        self._class_of: np.ndarray | None = None
        self._element_orders: np.ndarray | None = None

    # -- labels ------------------------------------------------------------

    def label(self, x: int) -> str:
        """The label of element x; a permutation's is its cycle notation, made here."""
        if self._labels is not None:
            return self._labels[x]
        return cycle_notation(self.perms[x].tolist())

    @property
    def labels(self) -> list[str]:
        """Every element's label, in index order, made on first use (``_cycle_labels``)."""
        if self._labels is None:
            self._labels = _cycle_labels(self.perms)
        return self._labels

    # -- structure ---------------------------------------------------------

    @property
    def class_of(self) -> np.ndarray:
        """The index of every element's conjugacy class, (|G|,) (``conjugacy_classes``)."""
        conjugacy_classes(self)
        return self._class_of

    def _find_inverses(self) -> np.ndarray:
        n = self.order
        inv = np.full(n, -1, dtype=np.int64)
        rows, cols = np.nonzero(self.mult_table == 0)
        inv[rows] = cols
        if np.any(inv < 0):
            raise GroupConstructionError("some element has no right inverse")
        return inv

    def element_orders(self) -> np.ndarray:
        """Order of every element, from the powers of all elements at once."""
        if self._element_orders is None:
            orders, power, k = np.zeros(self.order, dtype=np.int64), np.arange(self.order), 1
            while not orders.all():
                orders[(power == 0) & (orders == 0)] = k
                power, k = self.mult_table[power, np.arange(self.order)], k + 1
            self._element_orders = orders
        return self._element_orders

    def element_index(self, label_or_index) -> int:
        """Resolve an element given as an index, a label, or an index written in
        ASCII digits (``int()`` would also take ``"2_0"`` and non-ASCII digits).
        A permutation's label is parsed and looked up, and taken only if it is
        the element's own label, so ``(2 1)`` or ``()`` name nothing."""
        if isinstance(label_or_index, (int, np.integer)):
            idx = int(label_or_index)
            if not 0 <= idx < self.order:
                raise GroupConstructionError(f"element index {idx} out of range")
            return idx
        text = str(label_or_index)
        if self.perms is None:
            if text in self._labels:
                return self._labels.index(text)
        else:
            idx = self._perm_index(text)
            if idx is not None and self.label(idx) == text:
                return idx
        # an index with more digits than the order is above it; int() never sees it
        if _POINT_RE.fullmatch(text) and len(text.lstrip("0")) <= len(str(self.order)):
            return self.element_index(int(text))
        raise GroupConstructionError(f"unknown element {label_or_index!r}")

    def _perm_index(self, text: str) -> int | None:
        """The element whose permutation the cycle notation ``text`` spells, if any."""
        degree = self.perms.shape[1]
        try:
            perm = parse_cycles(text, degree)
        except GroupConstructionError:
            return None
        if len(perm) != degree:
            return None
        rows = np.flatnonzero(self.perms[:, 0] == perm[0])
        rows = rows[(self.perms[rows] == perm).all(axis=1)]
        return int(rows[0]) if rows.size else None

    def validate(self) -> None:
        """Check associativity, identity and inverses; raise on failure.

        Exhaustive over all triples up to 60 elements, 10 000 seeded random
        triples above that.
        """
        n, t = self.order, self.mult_table
        if np.any((t < 0) | (t >= n)):
            raise GroupConstructionError("table entries out of range")
        if not (np.array_equal(t[0], np.arange(n)) and np.array_equal(t[:, 0], np.arange(n))):
            raise GroupConstructionError("element 0 is not a two-sided identity")
        inv = self.inverse_table
        if np.any(t[inv, np.arange(n)] != 0) or np.any(t[np.arange(n), inv] != 0):
            raise GroupConstructionError("inverse table is not two-sided")
        if np.any(np.sort(t, axis=1) != np.arange(n)) or np.any(np.sort(t, axis=0) != np.arange(n)[:, None]):
            raise GroupConstructionError("table rows/columns are not permutations")
        if n <= 60:
            # (ab)c computed for all triples at once
            left = t[t, :]                     # left[a, b, c] = (ab)c
            right = t[:, t]                    # right[a, b, c] = a(bc)
            if not np.array_equal(left, right):
                raise GroupConstructionError("multiplication table is not associative")
        else:
            abc = np.random.default_rng(0).integers(0, n, size=(10_000, 3))
            a, b, c = abc[:, 0], abc[:, 1], abc[:, 2]
            if not np.array_equal(t[t[a, b], c], t[a, t[b, c]]):
                raise GroupConstructionError("multiplication table is not associative")

    def __repr__(self) -> str:
        return f"FiniteGroup({self.name}, order={self.order})"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _closure(
    generators: list[tuple[int, ...]],
    name: str,
    family: tuple | None,
    order_cap: int,
) -> FiniteGroup:
    """Breadth-first closure of permutation generators.

    Ordering contract: identity first, then BFS levels of the right Cayley
    graph, ties inside a level broken by lexicographic permutation image.
    This fixes element indices deterministically.  Images are big-endian
    unsigned ints, so the bytes of an image, by which an element is looked
    up, sort in lexicographic image order; a level's products are one gather.
    """
    degree = max([1] + [len(g) for g in generators])
    dtype = np.min_scalar_type(degree - 1).newbyteorder(">")
    gens = np.array([g + tuple(range(len(g), degree)) for g in generators], dtype=dtype).reshape(-1, degree)
    width = degree * dtype.itemsize
    frontier = np.arange(degree, dtype=dtype)[None]
    index = {frontier.tobytes(): 0}   # image bytes -> element index, in index order
    words: dict[int, tuple[int, int]] = {}
    right: list[int] = []   # index of elements[x] o gens[s] at x * len(gens) + s
    while len(frontier):
        first = len(index) - len(frontier)   # the index of frontier[0]
        products = frontier[:, gens].reshape(-1, degree)   # p o g = p[g]
        data = products.tobytes()
        keys = [data[i:i + width] for i in range(0, len(data), width)]
        discovered: dict[bytes, int] = {}   # new image -> its first position among the products
        for pos, key in enumerate(keys):
            if key not in index:
                discovered.setdefault(key, pos)
        if len(index) + len(discovered) > order_cap:
            raise GroupConstructionError(
                f"group too large: closure exceeded the order cap {order_cap}"
            )
        new = sorted(discovered)
        for key in new:
            x, pos = len(index), discovered[key]
            index[key] = x
            words[x] = (first + pos // len(gens), pos % len(gens))
        right.extend(index[key] for key in keys)
        frontier = products[[discovered[key] for key in new]]
    n = len(index)
    # elements[a] o elements[b] = (elements[a] o elements[parent]) o gens[slot]
    right_table = np.array(right, dtype=np.int64).reshape(n, len(gens))
    table = np.empty((n, n), dtype=np.int64)
    table[:, 0] = np.arange(n)
    for b in range(1, n):
        parent, slot = words[b]
        table[:, b] = right_table[table[:, parent], slot]
    return FiniteGroup(table, name=name, family=family, generators=right_table[0].tolist(),
                       bfs_words=words, perms=np.frombuffer(b"".join(index), dtype=dtype).reshape(n, degree))


def _check_catalog_order(order: int, order_cap: int) -> None:
    """Catalog orders are known in advance: refuse before building a permutation."""
    if order > order_cap:
        raise GroupConstructionError(f"group too large: order {order} exceeds the order cap {order_cap}")


def cyclic_group(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise GroupConstructionError("cyclic group needs n >= 1")
    _check_catalog_order(n, order_cap)
    gens = [] if n == 1 else [tuple((i + 1) % n for i in range(n))]
    return _closure(gens, f"C{n}", ("cyclic", n), order_cap)


def dihedral_group(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if n < 1:
        raise GroupConstructionError("dihedral group needs n >= 1")
    _check_catalog_order(2 * n, order_cap)
    if n == 1:
        gens = [parse_cycles("(1 2)")]
    elif n == 2:
        gens = [parse_cycles("(1 2)", 4), parse_cycles("(3 4)", 4)]
    else:
        rot = tuple((i + 1) % n for i in range(n))
        ref = tuple(0 if i == 0 else n - i for i in range(n))  # fixes point 1
        gens = [rot, ref]
    return _closure(gens, f"D{n}", ("dihedral", n), order_cap)


def symmetric_group(n: int, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    if not 1 <= n <= 5:
        raise GroupConstructionError("symmetric catalog group supports 1 <= n <= 5")
    _check_catalog_order(math.factorial(n), order_cap)
    gens = []
    if n >= 2:
        gens.append(parse_cycles("(1 2)", n))
    if n >= 3:
        gens.append(tuple((i + 1) % n for i in range(n)))
    return _closure(gens, f"S{n}", ("symmetric", n), order_cap)


def quaternion_group(n: int = 8, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Q8, the only quaternion group in the catalog: n must be 8."""
    if n != 8:
        raise GroupConstructionError("only Q8 is in the quaternion catalog")
    _check_catalog_order(8, order_cap)
    # left-regular action of Q8 on itself, points ordered 1,-1,i,-i,j,-j,k,-k
    gen_i = parse_cycles("(1 3 2 4)(5 7 6 8)")
    gen_j = parse_cycles("(1 5 2 6)(3 8 4 7)")
    return _closure([gen_i, gen_j], "Q8", ("quaternion", 8), order_cap)


# family -> constructor(n, order_cap); "<letter><n>" names the family by its initial
_CATALOG = {
    "cyclic": cyclic_group,
    "dihedral": dihedral_group,
    "symmetric": symmetric_group,
    "quaternion": quaternion_group,
}
_FAMILY_OF_LETTER = {family[0].upper(): family for family in _CATALOG}
_CATALOG_RE = re.compile(rf"^([{''.join(_FAMILY_OF_LETTER)}])([0-9]+)$", re.IGNORECASE)


def _parse_count(digits: str) -> int:
    """A decimal integer token; one longer than the cap's digits is above it, and int() never sees it."""
    width = len(digits.lstrip("-").lstrip("0"))
    if width > _CAP_DIGITS:
        raise GroupConstructionError(f"group too large: a {width}-digit catalog count exceeds the order cap")
    return int(digits)


def group_from_generators(
    cycle_strings: list[str],
    name: str = "G",
    order_cap: int = DEFAULT_ORDER_CAP,
) -> FiniteGroup:
    return _closure([parse_cycles(s) for s in cycle_strings], name, None, order_cap)


def group_from_table(table, labels: list[str] | None = None, name: str = "G") -> FiniteGroup:
    """Build a group from an explicit table, validating all axioms.  Each greedy
    generator is the lowest-index element outside the subgroup of the earlier
    ones, which it at least doubles (Lagrange): at most log2 |G| of them."""
    message = "'table' must be a square array of integer element indices"
    try:
        table = np.asarray(table)
    except ValueError:  # ragged rows
        raise GroupConstructionError(message) from None
    if table.ndim != 2 or table.dtype.kind not in "iu":
        raise GroupConstructionError(message)
    group = FiniteGroup(table, labels=labels, name=name)
    group.validate()
    gens, words = [], {}
    while len(words) + 1 < group.order:   # the words reach the subgroup of the generators so far
        inside = np.zeros(group.order, dtype=bool)
        inside[[0, *words]] = True
        gens.append(int(np.argmin(inside)))
        words = _bfs_words(group.mult_table, gens)
    group.generators, group.bfs_words = gens, words
    return group


def _bfs_words(table: np.ndarray, gens: list[int]) -> dict[int, tuple[int, int]]:
    """Breadth-first words over the generators, each level in index order; each new
    element's word is its first (parent, slot) in level order, slot order."""
    words, seen, frontier = {}, np.zeros(len(table), dtype=bool), np.array([0])
    seen[0] = True
    while frontier.size:
        new, first = np.unique(table[np.ix_(frontier, gens)], return_index=True)
        keep = ~seen[new]
        new, first = new[keep], first[keep]
        seen[new] = True
        words.update(zip(new.tolist(), zip(frontier[first // len(gens)].tolist(), (first % len(gens)).tolist())))
        frontier = new
    return words


def _string_list(value, what: str) -> list[str]:
    if not isinstance(value, (list, tuple)) or not all(isinstance(v, str) for v in value):
        raise GroupConstructionError(f"{what} must be a list of strings")
    return list(value)


def build_group(spec, order_cap: int = DEFAULT_ORDER_CAP) -> FiniteGroup:
    """Build a group from a construction descriptor.

    Accepted forms:

    * catalog shorthand string: ``"C6"``, ``"D4"``, ``"S3"``, ``"Q8"``
    * mapping ``{"catalog": {"family": "cyclic"|"dihedral"|"symmetric"|"quaternion", "n": k}}``
    * mapping ``{"generators": ["(1 2)", "(1 2 3)"]}`` (cycle notation)
    * mapping ``{"table": [[...], ...]}`` (explicit multiplication table)
    * list of cycle-notation strings (same as the generators mapping)

    Both catalog forms go through one family -> constructor table and accept the
    same groups; the quaternion family holds only Q8, so it needs n = 8 in both.
    A descriptor of any other shape raises ``GroupConstructionError``.
    """
    if isinstance(spec, str):
        match = _CATALOG_RE.match(spec.strip())
        if not match:
            raise GroupConstructionError(f"unknown catalog group {spec!r}")
        letter, digits = match.groups()
        return _CATALOG[_FAMILY_OF_LETTER[letter.upper()]](_parse_count(digits), order_cap)
    if isinstance(spec, (list, tuple)):
        return group_from_generators(_string_list(spec, "generators"), order_cap=order_cap)
    if isinstance(spec, dict):
        if "catalog" in spec:
            cat = spec["catalog"]
            # type(...) is int: a bool is an int subclass, and true is no count
            if not isinstance(cat, dict) or not isinstance(cat.get("family", ""), str) \
                    or type(cat.get("n", 0)) is not int:
                raise GroupConstructionError("'catalog' must be {\"family\": string, \"n\": integer}")
            family = cat.get("family", "").lower()
            if family not in _CATALOG:
                raise GroupConstructionError(f"unknown catalog family {family!r}")
            return _CATALOG[family](cat.get("n", 0), order_cap)
        if "generators" in spec:
            return group_from_generators(_string_list(spec["generators"], "'generators'"), order_cap=order_cap)
        if "table" in spec:
            labels, name = spec.get("labels"), spec.get("name", "G")
            if not isinstance(name, str):
                raise GroupConstructionError("'name' must be a string")
            if labels is not None:
                labels = _string_list(labels, "'labels'")
            return group_from_table(spec["table"], labels=labels, name=name)
        raise GroupConstructionError("descriptor needs 'catalog', 'generators' or 'table'")
    raise GroupConstructionError(f"unsupported group spec of type {type(spec).__name__}")


# ---------------------------------------------------------------------------
# conjugacy structure
# ---------------------------------------------------------------------------


def conjugacy_classes(group: FiniteGroup) -> list[ConjugacyClass]:
    """All conjugacy classes, sorted by base element (= least member index),
    found as the orbits of the generators' conjugation action in one pass.

    Each generator slot s gives the map x -> s x s^-1, one gather of the
    table (a group without generators uses every element).  The least label
    of every element's orbit is pulled along every map, and each label is
    replaced by its own label (pointer jumping), until no label changes; the
    classes, ``group.class_of`` and the members (one stable argsort) are read
    off the labels.  No array work is done per class, and no (|G|, |G|)
    array is made beyond the table (save the every-element maps of a group
    without generators); each class makes its centralizer and coset
    representatives on first read.
    """
    if group._classes is None:
        n, t, inv = group.order, group.mult_table, group.inverse_table
        gens = np.arange(n) if group.generators is None else np.asarray(group.generators, dtype=np.int64)
        maps = t[t[gens], inv[gens, None]]   # maps[s, x] = s x s^-1
        least = np.arange(n)
        while True:
            pulled = np.minimum(least, least[maps].min(axis=0, initial=n))
            pulled = pulled[pulled]
            if np.array_equal(pulled, least):
                break
            least = pulled
        is_base = least == np.arange(n)
        class_of = (np.cumsum(is_base) - 1)[least]
        ends = np.cumsum(np.bincount(class_of)).tolist()
        members = np.argsort(class_of, kind="stable").tolist()
        group._classes = [
            ConjugacyClass(base, tuple(members[a:b]), t, inv)
            for base, a, b in zip(np.flatnonzero(is_base).tolist(), [0] + ends[:-1], ends)
        ]
        class_of.flags.writeable = False   # shared by every character table of the group
        group._class_of = class_of
    return group._classes


# ---------------------------------------------------------------------------
# group algebra
# ---------------------------------------------------------------------------


def _as_coeffs(group: FiniteGroup, phi, stack: bool = False) -> np.ndarray:
    """phi as a complex coefficient vector; with ``stack``, a stack (r, |G|) of them too."""
    arr = np.asarray(phi, dtype=complex)
    if arr.shape[-1:] != (group.order,) or arr.ndim > (2 if stack else 1):
        raise ValueError(f"expected a coefficient vector of length {group.order}, got shape {arr.shape}")
    return arr


def left_regular_matrix(group: FiniteGroup, phi) -> np.ndarray:
    """Matrix of left multiplication by phi on the group algebra.

    Column b is the coefficient vector of phi times the delta function at b,
    ``M[x, b] = phi(x b^-1)``, so ``M @ psi`` is the product phi psi.
    """
    phi = _as_coeffs(group, phi)
    idx = group.mult_table[:, group.inverse_table]   # idx[x, b] = x b^-1
    return phi[idx]
