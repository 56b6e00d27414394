"""Planar link diagrams encoded as PD codes.

A diagram is a list of crossings, each a 4-tuple of edge labels read
counterclockwise starting at the incoming under-strand.  Geometrically the
four slots of a crossing sit at the compass points S, E, N, W (slots
0, 1, 2, 3), so the under-strand occupies slots 0 and 2 and the over-strand
slots 1 and 3.

Every face, state and strand computation reads one table.  Slot ``s`` of
crossing ``ci`` is the *dart* ``4 * ci + s``; ``Diagram.mate[a]`` is the
dart at the other end of dart ``a``'s edge.  The rest are bit operations on
a dart: ``a >> 2`` is its crossing, ``a & 3`` its slot, ``a ^ 2`` the dart
across the crossing on the same strand, and ``a ^ 1`` / ``a ^ 3`` the dart
the A- / B-smoothing joins it to.  Faces are the orbits of
``a -> mate[next slot of a]`` (Lando-Zvonkin, *Graphs on Surfaces and Their
Applications*, ch. 1), and strands those of ``a -> mate[a ^ 2]``.  An
orientation is one arrival bit per dart: ``OrientedDiagram.into[a]`` is 1
when the edge at dart ``a`` flows into its crossing there.
"""

from __future__ import annotations

from collections.abc import Iterable
import re
from typing import NamedTuple

from .frozen import Frozen

__all__ = [
    "PDSyntaxError",
    "DiagramError",
    "Diagram",
    "FaceStructure",
    "OrientedDiagram",
    "parse_pd",
    "serialize_pd",
    "validate",
    "orient",
    "crossing_signs",
]


class PDSyntaxError(ValueError):
    """Malformed PD text."""


class DiagramError(ValueError):
    """Structurally invalid diagram (bad labels, non-planar, split, ...)."""


_set = object.__setattr__


def _dart_table(crossings) -> tuple[tuple, tuple[int, ...], tuple[int, ...]]:
    """The label check: the crossings as tuples, and their ``labels`` and
    ``mate`` as :class:`Diagram` keeps them."""
    try:
        crossings = tuple(crossings)  # once, so an iterator is read once
    except TypeError:
        raise DiagramError(f"crossings must be a sequence of crossings, got {crossings!r}") from None
    try:
        crossings = tuple(map(tuple, crossings))  # lists, as from JSON, compare and hash as tuples
    except TypeError:
        for x in crossings:
            if not isinstance(x, Iterable):
                raise DiagramError(f"crossing needs 4 ends, got {x!r}") from None
        raise
    for x in crossings:
        if len(x) != 4:
            raise DiagramError(f"crossing needs 4 ends, got {x!r}")
    n = 2 * len(crossings)  # each label fills two of the 4c slots
    first = [-1] * (n + 1)  # the first dart seen on each label
    labels = tuple(e for x in crossings for e in x)
    mate = [-1] * len(labels)
    bad = False
    for a, e in enumerate(labels):
        if e.__class__ is not int or e < 1 or e > n:  # a bool is not an int here
            if e.__class__ is not int:
                raise DiagramError(f"edge label {e!r} is not an int")
            raise DiagramError(f"edge label {e!r} out of range 1..{n}")
        b = first[e]
        if b < 0:
            first[e] = a
        else:
            bad |= mate[b] >= 0  # a third end of the label
            mate[a] = b
            mate[b] = a
    if bad or -1 in mate:  # some label not used twice
        seen: dict[int, int] = {}
        for e in labels:
            seen[e] = seen.get(e, 0) + 1
        for e in range(1, n + 1):
            if seen.get(e, 0) != 2:
                raise DiagramError(f"edge {e} appears {seen.get(e, 0)} times, expected 2")
    return crossings, labels, tuple(mate)


class Diagram(Frozen):
    """An unoriented, connected planar PD-coded diagram: its crossings.

    Each crossing is a 4-tuple of edge labels, kept as tuples whatever
    sequences it was given as; each label is exactly an ``int`` (a ``bool``
    or other subclass is refused).  The c crossings have 4c slots, so their
    labels are 1..2c, each used twice, and ``edge_count`` is
    ``2 * crossing_count``.  ``Diagram(())`` is the 0-crossing unknot, so
    ``free_loops`` is 1 with no crossing and 0 with some.

    A diagram is valid once built: the label check comes first, then
    :func:`validate`, so it is connected and planar.  Each refusal is a
    :class:`DiagramError`.

    ``mate`` is the dart table, built with the label check: ``mate[a]`` is
    the dart at the other end of the edge at dart ``a = 4 * ci + s`` (slot
    ``s`` of crossing ``ci``), so ``mate[mate[a]] == a``; ``labels[a]`` is
    that edge's label.  ``fs`` is the face structure ``validate`` returns.
    These and the counts are derived from ``crossings``, so none is a
    constructor parameter: they are neither compared nor shown in the repr.
    """

    def __init__(self, crossings: tuple[tuple[int, int, int, int], ...]):
        crossings, labels, mate = _dart_table(crossings)
        _set(self, "crossings", crossings)
        _set(self, "mate", mate)
        _set(self, "labels", labels)
        _set(self, "fs", validate(self))

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.crossings == other.crossings

    def __hash__(self):
        return hash(self.crossings)

    def __repr__(self) -> str:
        return f"Diagram(crossings={self.crossings!r})"

    def __reduce__(self):
        return Diagram, (self.crossings,)

    @property
    def crossing_count(self) -> int:
        return len(self.crossings)

    @property
    def edge_count(self) -> int:
        return 2 * len(self.crossings)

    @property
    def free_loops(self) -> int:
        return int(not self.crossings)


def rejoin(d: Diagram, keep: tuple[int, ...], through: dict[int, int]) -> Diagram:
    """The crossings ``keep`` of ``d``, in that order, rejoined past the rest.

    Dart ``4 * i + s`` of the result is dart ``4 * keep[i] + s`` of ``d``.
    An edge that reaches a dropped dart ``b`` continues from ``through[b]``
    along that dart's edge, so ``through`` pairs up the dropped darts a walk
    can reach; a closed walk through dropped darts alone is a free loop.
    Edges are numbered 1..2k in dart order, k = ``len(keep)``.  It builds
    tangle closures and smoothings.  Unless it is one free loop and no
    crossing (the unknot), a result with free loops is split, and raises
    :class:`DiagramError` like one that :func:`validate` refuses.
    """
    mate = d.mate
    at = [-1] * d.crossing_count  # each kept crossing's place in ``keep``
    for i, ci in enumerate(keep):
        at[ci] = i
    seen = set()  # the dropped darts walked through
    ends = []
    for ci in keep:
        for b in mate[4 * ci:4 * ci + 4]:
            while at[b >> 2] < 0:
                seen.add(b)
                b = mate[through[b]]
            ends.append(4 * at[b >> 2] + (b & 3))
    labels = [0] * len(ends)
    n = 0
    for a, b in enumerate(ends):
        if not labels[a]:
            n += 1
            labels[a] = labels[b] = n
    loops = 0
    for b in through:
        if b not in seen:
            loops += 1
            while b not in seen:
                seen.update((b, through[b]))
                b = mate[through[b]]
    if loops != (not keep):
        raise DiagramError("split diagram: free loops alongside crossings" if keep
                           else "split diagram: expected exactly one free loop with no crossings")
    return Diagram(tuple(tuple(labels[a:a + 4]) for a in range(0, len(labels), 4)))


# X[a,b,c,d], X(a,b,c,d), [a,b,c,d] or (a,b,c,d), brackets matched: the
# optional group 1 is the "[" that selects the closing "]" over ")"
_TOKEN_RE = re.compile(
    r"X?(\[)?(?(1)|\()(-?[0-9]+),(-?[0-9]+),(-?[0-9]+),(-?[0-9]+)(?(1)\]|\))"
)


def _token_error(tok: str) -> PDSyntaxError:
    """Why ``tok`` is not a crossing: its shape, its arity (empty fields
    count) or a label that is not an ASCII integer."""
    body = tok[1:] if tok.startswith("X") else tok
    if (
        len(body) < 2
        or body[0] + body[-1] not in ("[]", "()")
        or "]" in body[1:-1]
        or ")" in body[1:-1]
    ):
        return PDSyntaxError(f"malformed token {tok!r}")
    items = body[1:-1].split(",") if len(body) > 2 else []
    if len(items) != 4:
        return PDSyntaxError(f"malformed token {tok!r} (arity {len(items)})")
    return PDSyntaxError(f"non-integer label in token {tok!r}")


def parse_pd(text: str) -> Diagram:
    """Parse whitespace-separated ``X[a,b,c,d]`` tokens into a Diagram.

    Also accepts ``X(a,b,c,d)`` and bare ``[a,b,c,d]`` / ``(a,b,c,d)``
    tuples.  ``U`` is a free loop, so ``U`` and empty text are both the
    0-crossing unknot.  A label is an optionally negative run of ASCII
    digits; c crossings take the labels 1..2c, so a label outside that
    range (a negative one too) is refused by ``Diagram``'s label check,
    and one with more digits than ``int`` converts raises
    ``PDSyntaxError``.  A ``U`` beside crossings, or a second one, is
    refused after the label check and before :func:`validate`.
    """
    crossings: list[tuple[int, ...]] = []
    loops = 0
    match = _TOKEN_RE.fullmatch
    for tok in text.split():
        if tok == "U":
            loops += 1
            continue
        m = match(tok)
        if not m:
            raise _token_error(tok)
        try:
            crossings.append(tuple(map(int, m.group(2, 3, 4, 5))))
        except ValueError:  # past the interpreter's int-string digit limit
            raise PDSyntaxError(f"label too long to convert in token {tok[:16]!r}...") from None
    if loops > (not crossings):  # a free loop beside crossings, or a second
        _dart_table(crossings)  # a bad label is named first
        raise DiagramError("split diagram: free loops alongside crossings" if crossings
                           else "split diagram: expected exactly one free loop with no crossings")
    return Diagram(crossings)


def serialize_pd(d: Diagram) -> str:
    toks = ["X[%d,%d,%d,%d]" % x for x in d.crossings]
    toks.extend("U" for _ in range(d.free_loops))
    return " ".join(toks)


class FaceStructure(NamedTuple):
    """Faces of the rotation system plus a proper checkerboard 2-coloring.

    Each face is a tuple of darts, starting at its lowest: dart ``a`` stands
    for the corner of crossing ``a >> 2`` between slots ``a & 3`` and the
    next one counterclockwise, and the face runs from corner ``a`` along the
    edge at the next slot to corner ``Diagram.mate`` of that slot's dart.
    ``face_of[a]`` is the index of the face at corner ``a`` and
    ``checkerboard_color[f]`` is 0 or 1.  ``face_of`` is left out of the
    repr.
    """

    faces: tuple[tuple[int, ...], ...]
    checkerboard_color: tuple[int, ...]
    face_of: list[int]

    def __repr__(self) -> str:
        return f"FaceStructure(faces={self.faces!r}, checkerboard_color={self.checkerboard_color!r})"


def validate(d: Diagram) -> FaceStructure:
    """Check connectedness, then planarity (Euler characteristic 2).

    Returns the face structure with a checkerboard coloring; raises
    DiagramError on split or non-planar input.  The faces of a connected
    4-regular map on the sphere are always properly 2-coloured.
    """
    c = d.crossing_count
    if c == 0:
        return FaceStructure(faces=((), ()), checkerboard_color=(0, 1), face_of=[])
    mate = d.mate
    # connectedness, by a walk from crossing 0 that also gives each crossing
    # the colour of its corner 0 (``phase``): corners alternate in colour
    # round a crossing, so the phase stays the same across an edge whose two
    # ends have opposite slot parity and flips across one whose ends have
    # the same parity
    phase = [-1] * c
    phase[0] = 0
    stack = [0]
    while stack:
        ci = stack.pop()
        p = phase[ci]
        for a in range(4 * ci, 4 * ci + 4):
            b = mate[a]
            cj = b >> 2
            if phase[cj] < 0:
                phase[cj] = p ^ (a ^ b ^ 1) & 1
                stack.append(cj)
    if -1 in phase:
        raise DiagramError("split diagram: crossing graph is disconnected")

    # faces: orbits of a -> mate[next slot of a], each from its lowest dart
    succ = [*mate[1:], mate[0]]
    succ[3::4] = mate[::4]  # slot 3 is followed by slot 0
    face_of = [-1] * (4 * c)
    faces = []
    for first in range(4 * c):
        if face_of[first] >= 0:
            continue
        fi = len(faces)
        orbit = []
        a = first
        while face_of[a] < 0:
            face_of[a] = fi
            orbit.append(a)
            a = succ[a]
        faces.append(tuple(orbit))
    euler = c - d.edge_count + len(faces)
    if euler != 2:
        raise DiagramError(f"not planar: Euler characteristic {euler} != 2")
    # the face at corner (0, 0) gets colour 0, the colour its slot parity
    # would give in an alternating diagram, keeping colours stable
    return FaceStructure(
        faces=tuple(faces),
        checkerboard_color=tuple(phase[f[0] >> 2] ^ f[0] & 1 for f in faces),
        face_of=face_of,
    )


class OrientedDiagram(NamedTuple):
    """A diagram with a direction chosen on every edge.

    ``into[a]`` is 1 when the edge at dart ``a`` flows into crossing
    ``a >> 2`` there and 0 when it flows out, so ``into[a] != into[mate[a]]``
    and ``into[a] != into[a ^ 2]``.  ``into`` is left out of the repr.
    """

    diagram: Diagram
    into: tuple[int, ...]
    component_count: int

    def __repr__(self) -> str:
        return f"OrientedDiagram(diagram={self.diagram!r}, component_count={self.component_count!r})"


def orient(d: Diagram, into: tuple[int, ...] | None = None) -> OrientedDiagram:
    """Orient every component; the lowest edge of each component is directed
    from its scan-order first end to its second.

    Each component is one walk ``a -> mate[a ^ 2]`` over its arrival darts
    from the second dart of its lowest label.  An imposed ``into``, one bit
    per dart as :class:`OrientedDiagram` keeps it, replaces the default
    orientation; it is checked to be coherent.
    """
    mate, labels = d.mate, d.labels
    if into is not None:
        if len(into) != len(mate) or not {*into} <= {0, 1}:
            raise DiagramError(f"an orientation needs one 0/1 bit per dart, {len(mate)} in all")
        for a, bit in enumerate(into):
            if bit == into[mate[a]]:
                raise DiagramError(f"edge {labels[a]} needs one head and one tail")
            if bit == into[a ^ 2]:
                raise DiagramError(f"strand through crossing {a >> 2} needs one end in and one out")
    bits = [-1] * len(mate)
    last = dict(zip(labels, range(len(labels))))  # the second dart of each label
    strands = 0
    for e in range(1, d.edge_count + 1):
        a = last[e]
        if bits[a] < 0:
            strands += 1
            if into is not None and not into[a]:
                a = mate[a]
            while bits[a] < 0:
                bits[a] = 1
                bits[mate[a]] = 0
                a = mate[a ^ 2]
    return OrientedDiagram(diagram=d, into=tuple(bits), component_count=strands + d.free_loops)


def crossing_signs(od: OrientedDiagram) -> tuple[tuple[int, ...], int, int, int]:
    """Per-crossing signs plus (c_plus, c_minus, writhe).

    The sign is +1 when the under-strand direction is the over-strand
    direction rotated a quarter turn counterclockwise: exactly when one of
    the darts at slots 0 and 1 is an arrival and the other a departure.
    """
    into = od.into
    signs = tuple(-1 if u == o else 1 for u, o in zip(into[::4], into[1::4]))
    c_plus = signs.count(1)
    c_minus = len(signs) - c_plus
    return signs, c_plus, c_minus, c_plus - c_minus

