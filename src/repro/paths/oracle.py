"""Path oracles — the single source of randomness for game setup.

A *path oracle* answers, for each game, "who is the destination and which
candidate paths exist?".  Both exact engines (reference and batch) call
the oracle in exactly the same order (round by round, source by source), so
two engines sharing an identically-seeded oracle consume identical random
streams and produce bit-identical trajectories — the property exploited by
``tests/test_engine_equivalence.py``.

Oracles also underpin testing: :class:`ScriptedPathOracle` replays a fixed
schedule so unit tests can script exact scenarios (e.g. the paper's Fig. 1a
example), and :class:`repro.mobility.MobilePathOracle` routes over a
unit-disk topology, static at speed 0, as a low-mobility extension.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Protocol, Sequence

import numpy as np

from repro.paths.distributions import HopDistribution, PathCountDistribution
from repro.paths.generator import PathSetGenerator

__all__ = [
    "GameSetup",
    "PathOracle",
    "PlannedGame",
    "RandomPathOracle",
    "ScriptedPathOracle",
    "plan_games",
]

#: One pre-drawn game in struct-of-arrays-friendly raw form:
#: ``(source, destination, candidate_paths)``.  Carries exactly the fields of
#: :class:`GameSetup` without object construction/validation cost — the batch
#: engine consumes thousands per tournament, read-only, so the path sequences
#: may be lists or (cached) tuples.
PlannedGame = tuple[int, int, Sequence[Sequence[int]]]


@dataclass(frozen=True)
class GameSetup:
    """Everything random about one game: destination and candidate paths."""

    source: int
    destination: int
    paths: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if self.source == self.destination:
            # a self-addressed game has no forwarding decision to score and
            # would silently corrupt fitness accounting downstream
            raise ValueError(
                f"source and destination are both {self.source};"
                " a game needs two distinct endpoints"
            )
        if not self.paths:
            raise ValueError("a game needs at least one candidate path")
        for path in self.paths:
            if self.source in path or self.destination in path:
                raise ValueError(
                    f"path {path} contains source/destination "
                    f"({self.source}/{self.destination})"
                )
            if len(set(path)) != len(path):
                raise ValueError(f"path {path} repeats an intermediate")


class PathOracle(Protocol):
    """Protocol implemented by all oracles."""

    def draw(self, source: int, participants: Sequence[int]) -> GameSetup:
        """Produce the setup of the next game originated by ``source``."""
        ...


class RandomPathOracle:
    """The paper's oracle: random destination, random paths (high mobility).

    "All intermediate nodes are chosen randomly.  This simulates a network
    with a high mobility level, in which topology changes very fast." (§4.1)
    """

    def __init__(
        self,
        rng: np.random.Generator,
        hop_distribution: HopDistribution,
        count_distribution: PathCountDistribution | None = None,
    ):
        self.rng = rng
        self.generator = PathSetGenerator(hop_distribution, count_distribution)
        self._plan_tables: _DecodeTables | None = None

    def draw(self, source: int, participants: Sequence[int]) -> GameSetup:
        others = [p for p in participants if p != source]
        if len(others) < 2:
            raise ValueError(
                "need at least 3 participants (source, destination, 1 intermediate)"
            )
        destination = others[int(self.rng.integers(len(others)))]
        pool = [p for p in others if p != destination]
        paths = self.generator.generate(self.rng, pool)
        return GameSetup(
            source=source, destination=destination, paths=tuple(paths)
        )

    # -- batched drawing (struct-of-arrays engines) --------------------------

    def _planned(self, source: int, participants: Sequence[int]) -> PlannedGame:
        """One game through :meth:`draw`, in :data:`PlannedGame` form."""
        setup = self.draw(source, participants)
        return setup.source, setup.destination, [list(p) for p in setup.paths]

    def _tables(self) -> _DecodeTables:
        """Inverse-CDF tables for the batched draw path."""
        if self._plan_tables is None:
            self._plan_tables = _DecodeTables(
                self.generator.hop_distribution.dist,
                self.generator.count_distribution,
            )
        return self._plan_tables

    def draw_tournament(
        self, sources: Sequence[int], participants: Sequence[int]
    ) -> list[PlannedGame]:
        """Draw the games of a whole round (or tournament) in one batch.

        Returns one :data:`PlannedGame` per entry of ``sources``, in order,
        equal to calling :meth:`draw` once per source, and leaves
        ``rng.bit_generator.state`` (``has_uint32``/``uinteger`` included)
        exactly where those calls would.  It gets there by decoding the
        generator's own PCG64 word stream with numpy instead of calling it
        per game.  The word layout it relies on (numpy's ``Generator``):

        * ``random()`` is one 64-bit word ``w``: ``(w >> 11) * 2**-53``;
        * scalar ``integers(n)`` is Lemire's method on ``next_uint32``,
          which returns a word's low half and buffers its high half in the
          state (``has_uint32``/``uinteger``); the buffer survives
          ``random()`` calls, and a rejected half pulls another half;
        * a game takes ``integers(n_others)`` (the destination), then
          ``random(2)`` (hop count, path count), then ``random(k)`` per
          path, with the partial Fisher-Yates pool carried across paths.

        So a game reads ``b + 2 + n_paths * k`` words, where ``b`` is 1 if
        its destination pulls a fresh word and 0 if it takes the buffered
        half; without a rejection ``b`` alternates from game to game.  The
        word count depends on the game's own hop and count words, so game
        offsets form a chain: the decoder reads every word position as a
        hop word at once, follows the chain from game to game, then runs
        all games' Fisher-Yates swaps in lockstep.  A Lemire
        rejection (probability ``(2**32 mod n) / 2**32`` per game) hands
        that one game to :meth:`draw` and decoding resumes after it.  Raw
        words are drawn in windows of at most ``_WINDOW_WORDS`` and the
        generator is then set to the first word not consumed.

        Any other bit generator is drawn per game through :meth:`draw`.
        """
        sources = list(sources)
        participants = list(participants)
        bit_gen = self.rng.bit_generator
        if not sources or not isinstance(bit_gen, np.random.PCG64):
            return [self._planned(source, participants) for source in sources]
        tables = self._tables()
        # each distinct source's ``others``, left-aligned in participant order
        distinct, source_row = np.unique(
            np.asarray(sources, dtype=np.int64), return_inverse=True
        )
        part = np.asarray(participants, dtype=np.int64)
        keep = part[None, :] != distinct[:, None]
        order = np.argsort(~keep, axis=1, kind="stable")
        others = part[order]
        n_others = keep.sum(axis=1)[source_row]
        # sized per source: a source outside ``participants`` leaves all of
        # them in ``others``, exactly as draw() sees it; the pool width must
        # be uniform within a decode, so runs of equal size decode apart
        bounds = [0, *(np.flatnonzero(np.diff(n_others)) + 1).tolist(), len(sources)]

        state = bit_gen.state
        buffered, buffer = state["has_uint32"], state["uinteger"]
        plan: list[PlannedGame] = []
        for lo, hi in zip(bounds, bounds[1:]):
            n_other = int(n_others[lo])
            if n_other < 2:
                raise ValueError(
                    "need at least 3 participants"
                    " (source, destination, 1 intermediate)"
                )
            game = lo
            while game < hi:
                entry = bit_gen.state
                words = bit_gen.random_raw(tables.window(hi - game))
                decoded, used, buffered, buffer, rejected = _decode_window(
                    words,
                    buffered,
                    buffer,
                    n_other,
                    tables,
                    others,
                    source_row[game:hi],
                    sources[game:hi],
                    plan,
                )
                bit_gen.state = entry
                bit_gen.advance(used)
                game += decoded
                if rejected:
                    _set_buffer(bit_gen, buffered, buffer)
                    plan.append(self._planned(sources[game], participants))
                    state = bit_gen.state
                    buffered, buffer = state["has_uint32"], state["uinteger"]
                    game += 1
        _set_buffer(bit_gen, buffered, buffer)
        return plan


#: Most raw words one decode window draws; bounds the decoder's scratch
#: arrays (a 50-seat x 100-round tournament takes two windows).
_WINDOW_WORDS = 1 << 15

_LOW32 = 0xFFFFFFFF
_UNIT = 1.0 / 9007199254740992.0  # 2**-53


class _DecodeTables:
    """The hop and path-count inverse CDFs as arrays: row ``r`` of the
    count tables is the count distribution of the ``r``-th hop value."""

    def __init__(self, hop_dist, counts) -> None:
        self.hop_values = np.asarray(hop_dist.values, dtype=np.int64)
        self.hop_cum = np.asarray(hop_dist.cumulative)
        rows = [counts.distribution_for(h) for h in hop_dist.values]
        width = max(len(d.values) for d in rows)
        # padded with inf, which no uniform reaches
        self.count_cum = np.full((len(rows), width), np.inf)
        self.count_values = np.zeros((len(rows), width), dtype=np.int64)
        for r, d in enumerate(rows):
            self.count_cum[r, : len(d.values)] = d.cumulative
            self.count_values[r, : len(d.values)] = d.values
        #: words of the longest possible game, and of an average one (no
        #: smaller than with the hop count clamped to a small pool)
        max_k = max(int(self.hop_values.max()) - 1, 1)
        self.max_game = 3 + int(self.count_values.max()) * max_k
        self.mean_game = 3 + sum(
            p * (h - 1) * d.mean()
            for h, p, d in zip(hop_dist.values, hop_dist.probabilities, rows)
        )

    def window(self, games: int) -> int:
        """Raw words to draw for ``games`` games: a little more than they
        take on average, and at least one longest game."""
        return min(_WINDOW_WORDS, int(games * self.mean_game * 1.1) + self.max_game)


def _set_buffer(bit_gen: np.random.PCG64, buffered: int, buffer: int) -> None:
    """Write the ``next_uint32`` half-word buffer into the generator."""
    state = bit_gen.state
    state["has_uint32"], state["uinteger"] = buffered, buffer
    bit_gen.state = state


def _decode_window(
    words: np.ndarray,
    buffered: int,
    buffer: int,
    n_others: int,
    tables: _DecodeTables,
    others: np.ndarray,
    source_row: np.ndarray,
    sources: list,
    plan: list,
) -> tuple[int, int, int, int, bool]:
    """Decode the leading games of ``sources`` whose draws lie in ``words``.

    ``buffered``/``buffer`` are the generator's half-word buffer at
    ``words[0]``; game ``g`` draws from ``others[source_row[g]]``.  Appends
    the decoded games to ``plan`` and returns ``(decoded, used, buffered,
    buffer, rejected)``: the games decoded, the words they consumed, the
    buffer after them, and whether the next game's destination draw hits a
    Lemire rejection (the caller draws that game per game).
    """
    pool = n_others - 1
    unit = (words >> 11) * _UNIT  # random() of each word
    h0 = int(buffered)
    hop_pos, game_end, hop_row, count_col = _hop_positions(
        unit, h0, len(sources), pool, tables
    )
    decoded = len(hop_pos)

    # destinations: a game with h = 0 pulls a word and takes its low half,
    # the next game takes its high half; game 0 may take the entry buffer
    pulled = words[hop_pos[h0::2] - 1]
    halves = np.empty(decoded, dtype=np.uint64)
    halves[h0::2] = pulled & _LOW32
    high = pulled >> 32
    halves[h0 + 1 :: 2] = high[: len(halves[h0 + 1 :: 2])]
    if h0 and decoded:
        halves[0] = buffer
    scaled = halves * np.uint64(n_others)
    rejects = np.flatnonzero((scaled & _LOW32) < (2**32 - n_others) % n_others)
    rejected = bool(rejects.size)
    if rejected:
        decoded = int(rejects[0])
    n_pulled = (decoded + 1 - h0) // 2
    if n_pulled:
        buffer = int(high[n_pulled - 1])
    buffered = h0 ^ (decoded & 1)
    if not decoded:
        return 0, 0, buffered, buffer, rejected

    hop_pos = hop_pos[:decoded]
    dest_col = (scaled[:decoded] >> 32).astype(np.intp)
    own = source_row[:decoded]
    game_row = hop_row[hop_pos]
    game_k = np.minimum(tables.hop_values[game_row] - 1, pool)
    if game_k.min() < 1:
        raise ValueError("participant pool too small for any path")
    game_paths = tables.count_values[game_row, count_col[hop_pos]]
    chosen = _swap_paths(unit, hop_pos + 2, game_k, game_paths, pool, dest_col)
    nodes = others[np.repeat(own, game_paths * game_k), chosen].tolist()
    destinations = others[own, dest_col].tolist()
    path_k = np.repeat(game_k, game_paths)
    path_at = np.cumsum(path_k) - path_k
    paths = [nodes[a : a + k] for a, k in zip(path_at.tolist(), path_k.tolist())]
    cuts = np.cumsum(game_paths).tolist()
    games = [paths[a:b] for a, b in zip([0, *cuts], cuts)]
    plan.extend(zip(sources, destinations, games))
    return decoded, int(game_end[hop_pos[-1]]), buffered, buffer, rejected


def _hop_positions(
    unit: np.ndarray, h0: int, n_games: int, pool: int, tables: _DecodeTables
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The hop-word position of each leading game that fits in the window.

    Returns ``(hop_pos, game_end, hop_row, count_col)``; the last three are
    per word position ``b``, read as if a game's hop word were at ``b``
    (its count word is ``b + 1``).
    """
    n_words = len(unit)
    # the inverse-CDF lookups of DiscreteDistribution.sample (a right
    # bisection counts the entries <= u), at every word; the last column is
    # 1.0 or padding, which no uniform reaches
    hop_row = np.zeros(n_words, dtype=np.intp)
    for c in tables.hop_cum[:-1].tolist():
        hop_row += unit >= c
    hop_b = hop_row[:-1]
    count_col = np.zeros(n_words - 1, dtype=np.intp)
    for cum in tables.count_cum.T[:-1]:
        count_col += unit[1:] >= cum[hop_b]
    k_row = np.minimum(tables.hop_values - 1, pool)
    length = tables.count_values * k_row[:, None]  # swap words of a game
    game_end = np.arange(2, n_words + 1) + length[hop_b, count_col]
    # game i takes the buffered half (h = 1) or pulls a word (h = 0), and h
    # alternates from game to game; so game 0's hop word is 1 - h0, and
    # game i + 1's is game i's end, plus one if game i took the buffer
    # (game i + 1 then pulls a word)
    ends = game_end.tolist()
    hop_pos = []
    b, h = 1 - h0, h0
    while len(hop_pos) < n_games and b < n_words - 1 and ends[b] <= n_words:
        hop_pos.append(b)
        b, h = ends[b] + h, h ^ 1
    hop_pos = np.array(hop_pos, dtype=np.intp)
    return hop_pos, game_end, hop_row, count_col


def _swap_paths(
    unit: np.ndarray,
    start: np.ndarray,
    game_k: np.ndarray,
    game_paths: np.ndarray,
    pool: int,
    dest_col: np.ndarray,
) -> np.ndarray:
    """Each game's path nodes from its Fisher-Yates words.

    Swap ``s`` of a game exchanges pool position ``i = s mod k`` with
    ``j = i + floor(u * (pool - i))``, ``u`` from word ``start + s``.  The
    pool (``others`` without the destination) is held as column numbers
    into the game's ``others`` row; path ``p`` is the values swaps
    ``p*k .. p*k + k - 1`` bring to positions ``0 .. k-1``.  Returns those
    columns for all games back to back, game by game.
    """
    steps = game_paths * game_k
    game = np.repeat(np.arange(len(steps)), steps)
    step = np.arange(len(game)) - np.repeat(np.cumsum(steps) - steps, steps)
    i = step % game_k[game]
    u = unit[start[game] + step]
    at_i = game * pool + i
    at_j = at_i + (u * (pool - i)).astype(np.intp)
    # all games swap in lockstep: order the swaps step-major, then each
    # step is one slice
    order = np.argsort(step, kind="stable")
    at_i, at_j = at_i[order], at_j[order]
    col = np.arange(pool)
    pools = (col + (col >= dest_col[:, None])).ravel()
    chosen = np.empty(len(order), dtype=np.intp)
    lo = 0
    for hi in np.cumsum(np.bincount(step)).tolist():
        a, b = at_i[lo:hi], at_j[lo:hi]
        picked = pools[b]
        pools[b] = pools[a]
        pools[a] = picked
        chosen[lo:hi] = picked
        lo = hi
    nodes = np.empty_like(chosen)
    nodes[order] = chosen
    return nodes


class ScriptedPathOracle:
    """Replays a pre-built schedule of :class:`GameSetup`s (testing).

    The schedule is consumed in order; drawing past the end raises.  ``draw``
    verifies the requested source matches the scripted one, catching
    scheduling bugs in the engines early.
    """

    def __init__(self, setups: Iterable[GameSetup]):
        self._setups = list(setups)
        self._next = 0

    def draw(self, source: int, participants: Sequence[int]) -> GameSetup:
        if self._next >= len(self._setups):
            raise IndexError("scripted oracle exhausted")
        setup = self._setups[self._next]
        self._next += 1
        if setup.source != source:
            raise AssertionError(
                f"scripted setup #{self._next - 1} is for source {setup.source}, "
                f"engine asked for {source}"
            )
        return setup

    @property
    def remaining(self) -> int:
        """Number of scripted games not yet consumed."""
        return len(self._setups) - self._next


def plan_games(
    oracle: PathOracle, sources: Sequence[int], participants: Sequence[int]
) -> list[PlannedGame]:
    """Pre-draw one round's games from any oracle, in source order.

    Uses the oracle's batched ``draw_tournament`` when it has one (all
    production oracles do: :class:`RandomPathOracle` and
    ``MobilePathOracle``, each pinned
    stream-identical to its per-game ``draw``), otherwise falls back to
    per-game :meth:`draw` calls in the same order.  Both modes are stream-
    and state-identical to an engine drawing each
    game just before playing it, because games consume no randomness
    themselves and no oracle mutates per-draw state based on game outcomes —
    so pre-drawing only moves the *timing* of the draws, never their values.

    Callers that interleave other consumers of the oracle's generator between
    games (none exist today; the reputation exchange runs between *rounds*)
    must not pre-draw across those boundaries — which is why the batch engine
    plans one round at a time when the exchange extension is enabled.
    """
    batched = getattr(oracle, "draw_tournament", None)
    if batched is not None:
        return batched(sources, participants)
    return [
        (setup.source, setup.destination, setup.paths)
        for setup in (oracle.draw(source, participants) for source in sources)
    ]
