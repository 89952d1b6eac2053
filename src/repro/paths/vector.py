"""Vectorized tournament-plan sampling for the fused engine.

The bit-identical engines draw game setups through the oracle's sequential
RNG protocol (``draw`` / the stream-identical ``draw_tournament``), which
pins every trajectory: every game must consume the generator exactly as a
per-game ``draw`` would, and a game's scalar forwarding loop still runs per
game.  (``RandomPathOracle.draw_tournament`` decodes the generator's word
stream with numpy, so on the random oracle the draw itself is no longer the
bottleneck of the batch engine.)

The fused engine's contract is *statistical* (distributional), not
bit-identical, which unlocks a different sampler: draw a whole generation's
destinations, hop counts, path counts and intermediate sets as a handful of
numpy array operations.  Every marginal and joint distribution matches the
sequential sampler exactly —

* destination: uniform over the participants minus the source
  (``Generator.integers``, same as :meth:`RandomPathOracle.draw`),
* hop count: inverse-CDF over the mode's :class:`HopDistribution` with
  right-bisection, the same lookup ``DiscreteDistribution.sample`` performs,
* alternate-path count: the Table-3 pmf conditioned on the drawn hop count,
* each path: a uniform ordered ``k``-subset of the pool via a partial
  Fisher–Yates shuffle vectorized across paths, using the same
  ``u -> i + floor(u * (n - i))`` index map as
  :func:`repro.paths.generator.sample_distinct` (paths of one game are
  mutually independent in both samplers: a partial Fisher–Yates draw is
  uniform from *any* starting pool order),

but the underlying generator is consumed in a different order and count, so
trajectories diverge from the sequential engines while every per-game
distribution is identical.  ``tests/test_paths_vector.py`` pins the
distributional match; ``tests/test_engine_statistical.py`` pins the
downstream claim.

The route-table oracles (topology, mobile) get a second native sampler,
:func:`_sample_routed_vectorized`: destinations are rejection-sampled in
vectorized waves (one ``integers`` batch per wave instead of one call per
attempt), routability is resolved once per *distinct* (source, destination)
pair per topology window through the oracle's route provider, and the
plan is packed with pair-level dedup — each distinct candidate-path set is
packed once and games gather its rows by index.  Per-game distributions are
identical to the sequential rejection sampler (uniform over the source's
others, conditioned on routability within ``max_draws`` attempts), and the
draw-count-clocked topology stepping of the mobile oracle fires at exactly
the same draw counts (window boundaries), but the shared generator is
consumed in a different order — the same statistical relaxation as the
random sampler above.  ``tests/test_paths_vector.py`` pins the
distributional match and the step schedule.

Oracles without a vectorized sampler (scripted, third-party) are planned
through :func:`repro.paths.oracle.plan_games` and packed into the same
:class:`GamePlanArrays` layout.

:func:`plan_generation_arrays` stacks *all* tournaments of a generation
into one round-major plan for the fused engine: the random oracle draws
every tournament's games through one core call over per-tournament pools,
while routed/fallback oracles are planned tournament by tournament (so the
topology clock and slot cache advance exactly as the sequential generation
loop drives them) and interleaved into the stacked layout.

Every plan is *ragged*: candidate paths are CSR segments of one flat array
of real hops (:class:`GamePlanArrays`), never rows padded to the plan's
longest path.  The samplers write only real hops, the weave and the
replication stacking concatenate whole runs of games' hops, and the fused
engine's per-round and end-of-plan passes cost O(real hops) — the paper's
"shorter" paths average under three intermediates against a longest path
of seven.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.paths.oracle import PathOracle, RandomPathOracle, plan_games

__all__ = [
    "GamePlanArrays",
    "plan_tournament_arrays",
    "plan_generation_arrays",
    "stack_replication_plans",
]


@dataclass
class GamePlanArrays:
    """A whole tournament's game setups as a ragged struct-of-arrays.

    Three nested ranges, CSR style: game ``g`` owns the candidate-path rows
    ``game_path_start[g]:game_path_start[g + 1]`` (in candidate order), and
    path row ``p`` owns the flat hop slots
    ``path_start[p]:path_start[p + 1]`` (``path_len[p]`` of them) of
    ``hop_nodes``, its intermediates in forwarding order.  Only real hops
    are stored: there is no padding, so every array is as long as the
    count it describes, and the hops of one game (or of any run of
    consecutive games) form one contiguous slice of ``hop_nodes``.
    """

    n_games: int
    src: np.ndarray  # (G,) int64 — source id per game
    dst: np.ndarray  # (G,) int64 — destination id per game
    n_paths: np.ndarray  # (G,) int64 — candidate paths per game
    game_path_start: np.ndarray  # (G + 1,) int64 — path-row ranges per game
    path_game: np.ndarray  # (P,) int64 — owning game of each path row
    path_col: np.ndarray  # (P,) int64 — candidate index within the game
    path_start: np.ndarray  # (P + 1,) int64 — hop ranges per path row
    path_len: np.ndarray  # (P,) int64 — intermediates per path (>= 1)
    hop_nodes: np.ndarray  # (path_start[-1],) int64 — intermediates, flat
    max_paths: int  # max candidates in any game (column count for ratings)

    def paths_of(self, game: int) -> list[list[int]]:
        """The candidate paths of one game as plain lists (replay kernel)."""
        lo, hi = self.game_path_start[game], self.game_path_start[game + 1]
        return split_hops(
            self.hop_nodes[self.path_start[lo] : self.path_start[hi]].tolist(),
            self.path_len[lo:hi].tolist(),
        )


def split_hops(hops: list[int], lens: list[int]) -> list[list[int]]:
    """Cut a flat list of consecutive paths' hops into one list per path."""
    out = []
    pos = 0
    for n in lens:
        out.append(hops[pos : pos + n])
        pos += n
    return out


def segment_index(starts: np.ndarray, lens: np.ndarray) -> np.ndarray:
    """The flat positions ``starts[i] .. starts[i] + lens[i] - 1`` of every
    segment ``i``, concatenated in segment order — the gather index of a
    ragged selection."""
    offs = np.cumsum(lens)
    offs -= lens
    idx = np.repeat(starts - offs, lens)
    idx += np.arange(idx.size)
    return idx


def _offsets(lens: np.ndarray) -> np.ndarray:
    """CSR offsets ``(len(lens) + 1,)`` of consecutive segments."""
    out = np.zeros(len(lens) + 1, dtype=np.int64)
    np.cumsum(lens, out=out[1:])
    return out


def plan_tournament_arrays(
    oracle: PathOracle, sources: Sequence[int], participants: Sequence[int]
) -> GamePlanArrays:
    """Draw a whole tournament's games into :class:`GamePlanArrays`.

    The route-table oracles (``TopologyPathOracle``, ``MobilePathOracle``)
    get the native routed sampler (distributionally identical,
    stream-divergent — see the module docstring); every other oracle is
    planned sequentially through :func:`plan_games` and repacked.  The
    random oracle's native sampler draws whole generations
    (:func:`plan_generation_arrays`; one tournament is one seating).
    """
    participants = list(participants)
    sources = list(sources)
    if (
        _is_routed_oracle(oracle)
        and len(participants) >= 2
        and set(sources) <= set(participants)
    ):
        return _sample_routed_vectorized(oracle, sources, participants)
    return _arrays_from_plan(plan_games(oracle, sources, participants))


def _is_routed_oracle(oracle) -> bool:
    """Whether the oracle is one of the route-provider-backed kinds."""
    # imported lazily: paths is a lower layer than network/mobility, so the
    # dispatch must not pull them into the import chain of this module
    from repro.mobility.oracle import MobilePathOracle
    from repro.network.topology import TopologyPathOracle

    return isinstance(oracle, (TopologyPathOracle, MobilePathOracle))


def _arrays_from_plan(plan) -> GamePlanArrays:
    """Pack a sequential :func:`plan_games` plan into ragged arrays."""
    n_games = len(plan)
    src = np.empty(n_games, dtype=np.int64)
    dst = np.empty(n_games, dtype=np.int64)
    n_paths = np.empty(n_games, dtype=np.int64)
    flat_paths: list[Sequence[int]] = []
    for g, (source, destination, paths) in enumerate(plan):
        src[g] = source
        dst[g] = destination
        n_paths[g] = len(paths)
        flat_paths.extend(paths)
    total = len(flat_paths)
    path_len = np.fromiter(
        (len(p) for p in flat_paths), dtype=np.int64, count=total
    )
    if total and int(path_len.min()) < 1:
        # a path segment of the flat layout must hold at least one hop
        raise ValueError(
            "the fused planner needs at least one intermediate on every"
            " candidate path"
        )
    path_start = _offsets(path_len)
    hop_nodes = np.fromiter(
        (node for path in flat_paths for node in path),
        dtype=np.int64,
        count=int(path_start[-1]),
    )
    game_path_start = _offsets(n_paths)
    path_game = np.repeat(np.arange(n_games, dtype=np.int64), n_paths)
    path_col = np.arange(total, dtype=np.int64) - game_path_start[path_game]
    return GamePlanArrays(
        n_games=n_games,
        src=src,
        dst=dst,
        n_paths=n_paths,
        game_path_start=game_path_start,
        path_game=path_game,
        path_col=path_col,
        path_start=path_start,
        path_len=path_len,
        hop_nodes=hop_nodes,
        max_paths=int(n_paths.max()) if n_games else 0,
    )


def _step_windows(
    oracle, n_games: int, n_participants: int
) -> tuple[list[tuple[bool, int]], int | None]:
    """Split the plan into maximal game ranges with no topology step inside.

    Returns ``(windows, final_draw_count)`` where each window is
    ``(step_before, size)`` — the topology steps once before every window
    flagged ``step_before``, replicating the draw-count-clocked schedule of
    the sequential mobile draw exactly — and ``final_draw_count`` is the
    oracle's ``_draws_since_step`` after all draws (``None`` for oracles
    without a clock).
    """
    step_every = getattr(oracle, "step_every", None)
    if step_every is None:
        return [(False, n_games)], None
    threshold = n_participants if step_every == "round" else step_every
    since = oracle._draws_since_step
    if not isinstance(threshold, int):
        # "tournament" mode: stepping is hook-driven, the counter still runs
        return [(False, n_games)], since + n_games
    windows: list[tuple[bool, int]] = []
    remaining = n_games
    while remaining > 0:
        step_before = since >= threshold
        if step_before:
            since = 0
        size = min(threshold - since, remaining)
        windows.append((step_before, size))
        since += size
        remaining -= size
    return windows, since


class _RoutedSlotCache:
    """Persistent pair -> candidate-path-set resolution for one oracle.

    Lives across :func:`plan_tournament_arrays` calls (attached to the
    oracle as ``_vector_cache``), so a static or slowly-changing topology
    resolves each (source, destination) pair through the route provider
    once per epoch instead of once per tournament.  ``route_slot`` is a
    dense pair-code lookup (-2 unknown, -1 no route, >= 0 a slot index);
    ``slots`` is append-only, which keeps ``id()``-keyed dedup safe (every
    keyed object stays alive in ``slots``) and lets the packed slot arrays
    be reused verbatim while no new slot appeared.
    """

    __slots__ = (
        "epoch",
        "steps",
        "scope",
        "m1",
        "route_slot",
        "slots",
        "slot_of_obj",
        "packed_count",
        "n_rows",
        "n_hops",
        "_n_paths",
        "_row_start",
        "_hop_start",
        "_hops",
        "_path_len",
        "resolves",
        "rejects",
        "invalidations",
    )

    def __init__(self, epoch: int, steps: int, scope, m1: int):
        self.epoch = epoch
        self.steps = steps
        self.scope = scope
        self.m1 = m1
        #: pair codes resolved through the route provider (cache fills)
        self.resolves = 0
        #: rejection-sampling retries: drawn candidates with no route
        self.rejects = 0
        #: topology-window invalidations (route_slot wiped, dedup kept)
        self.invalidations = 0
        self.route_slot = np.full(m1 * m1, -2, dtype=np.int64)
        self.slots: list[Sequence[Sequence[int]]] = []
        self.slot_of_obj: dict[int, int] = {}
        # packed arrays grow append-only with amortized-doubling capacity;
        # the first packed_count slots / n_rows rows / n_hops hops are valid
        self.packed_count = 0
        self.n_rows = 0
        self.n_hops = 0
        self._n_paths = np.empty(64, dtype=np.int64)
        self._row_start = np.zeros(65, dtype=np.int64)
        self._hop_start = np.zeros(257, dtype=np.int64)
        self._hops = np.empty(1024, dtype=np.int64)
        self._path_len = np.empty(256, dtype=np.int64)

    def invalidate(self, epoch: int, steps: int) -> None:
        """Unknown all pairs (new topology window); keep the slot dedup.

        Keyed on ``steps``, not just ``epoch``: a step that leaves the edge
        set (and epoch) intact can still move positions, and the provider's
        never-cache routes (churned-out sources, emergency boosts) are
        position-dependent — their pair resolutions must not outlive any
        step, exactly as the provider recomputes them on every call.
        """
        self.epoch = epoch
        self.steps = steps
        self.route_slot.fill(-2)
        self.invalidations += 1

    def packed_slots(self) -> tuple:
        """(n_paths, row_start, hop_start, hops, path_len) over all slots.

        Slot ``i`` owns rows ``row_start[i]:row_start[i + 1]``, row ``p``
        the hops ``hops[hop_start[p]:hop_start[p + 1]]``.  Incremental:
        only slots appended since the last call are packed, so a stable
        slot population (static topology, warm caches) pays nothing here.
        """
        slots = self.slots
        n_slots = len(slots)
        if self.packed_count < n_slots:
            new = [slots[i] for i in range(self.packed_count, n_slots)]
            new_rows = sum(len(paths) for paths in new)
            new_hops = sum(len(p) for paths in new for p in paths)
            self._reserve(n_slots, self.n_rows + new_rows, self.n_hops + new_hops)
            row = self.n_rows
            hop = self.n_hops
            hops_buf = self._hops
            for i, paths in enumerate(new, self.packed_count):
                self._n_paths[i] = len(paths)
                self._row_start[i + 1] = row + len(paths)
                for path in paths:
                    k = len(path)
                    self._path_len[row] = k
                    hops_buf[hop : hop + k] = path
                    hop += k
                    row += 1
                    self._hop_start[row] = hop
            self.packed_count = n_slots
            self.n_rows = row
            self.n_hops = hop
        return (
            self._n_paths[:n_slots],
            self._row_start[: n_slots + 1],
            self._hop_start[: self.n_rows + 1],
            self._hops[: self.n_hops],
            self._path_len[: self.n_rows],
        )

    def _reserve(self, n_slots: int, n_rows: int, n_hops: int) -> None:
        """Grow the packed buffers (doubling) to hold the new slots/rows/hops."""
        self._n_paths = _grown(self._n_paths, n_slots)
        self._row_start = _grown(self._row_start, n_slots + 1)
        self._path_len = _grown(self._path_len, n_rows)
        self._hop_start = _grown(self._hop_start, n_rows + 1)
        self._hops = _grown(self._hops, n_hops)


def _grown(buf: np.ndarray, size: int) -> np.ndarray:
    """``buf`` if it holds ``size`` items, else a copy with doubled capacity
    (at least ``size``) and the old contents in front."""
    if size <= buf.shape[0]:
        return buf
    out = np.zeros(max(2 * buf.shape[0], size), dtype=buf.dtype)
    out[: buf.shape[0]] = buf
    return out


def _slot_cache_for(oracle, provider, m1: int) -> _RoutedSlotCache:
    """The oracle's persistent slot cache, (re)built when stale.

    The cache is only valid for the provider's current scope and the
    topology's current epoch *and* step count (steps between plans can move
    positions — and the never-cache boost/virtual routes — without bumping
    the epoch); it is also rebuilt when an accumulation of never-cached
    routes (boosted pairs) has grown it past a sane bound — an append-only
    dedup over fresh list objects would otherwise leak.
    """
    scope = provider.scope
    cache: _RoutedSlotCache | None = getattr(oracle, "_vector_cache", None)
    topology = oracle.topology
    epoch = topology.epoch
    steps = getattr(topology, "steps", 0)
    if (
        cache is None
        or cache.m1 != m1
        or cache.scope != scope
        or len(cache.slots) > 4 * m1 * m1
    ):
        cache = _RoutedSlotCache(epoch, steps, scope, m1)
        oracle._vector_cache = cache
    elif cache.epoch != epoch or cache.steps != steps:
        cache.invalidate(epoch, steps)
    return cache


def _sample_routed_vectorized(
    oracle, sources: list[int], participants: list[int]
) -> GamePlanArrays:
    """The native vectorized sampler for the route-table oracles.

    Destinations are drawn in vectorized rejection waves per topology
    window; routability is resolved once per distinct (source, destination)
    pair per epoch through the oracle's route provider (which applies its
    cache policy), and packing dedups identical candidate-path sets.
    """
    rng = oracle.rng
    provider = oracle.provider
    routes = provider.routes
    max_draws = oracle.max_draws
    n = len(participants)
    parts = np.asarray(participants, dtype=np.int64)
    src = np.asarray(sources, dtype=np.int64)
    n_games = len(src)

    # per-participant "others" pools and the id -> row lookup, exactly as
    # the random sampler builds them
    off_diag = parts[None, :] != parts[:, None]
    others = np.broadcast_to(parts, (n, n))[off_diag].reshape(n, n - 1)
    max_id = int(parts.max())
    row_of = np.full(max_id + 1, -1, dtype=np.int64)
    row_of[parts] = np.arange(n, dtype=np.int64)
    src_rows = row_of[src]

    provider.rescope(participants)
    provider.sync()
    windows, final_draws = _step_windows(oracle, n_games, n)

    m1 = max_id + 1
    cache = _slot_cache_for(oracle, provider, m1)
    route_slot = cache.route_slot
    slots = cache.slots
    slot_of_obj = cache.slot_of_obj
    dst = np.empty(n_games, dtype=np.int64)
    game_slot = np.empty(n_games, dtype=np.int64)

    g0 = 0
    topology = oracle.topology
    for step_before, size in windows:
        if step_before:
            oracle._step_topology()
            cache.invalidate(topology.epoch, getattr(topology, "steps", 0))
        unresolved = np.arange(g0, g0 + size)
        for _ in range(max_draws):
            if unresolved.size == 0:
                break
            draws = rng.integers(n - 1, size=unresolved.size)
            cand = others[src_rows[unresolved], draws]
            codes = src[unresolved] * m1 + cand
            status = route_slot[codes]
            unknown = codes[status == -2]
            if unknown.size:
                unique_codes = np.unique(unknown).tolist()
                cache.resolves += len(unique_codes)
                for code in unique_codes:
                    s, d = divmod(code, m1)
                    paths = routes(s, d)
                    if paths:
                        slot = slot_of_obj.get(id(paths))
                        if slot is None:
                            slot = len(slots)
                            slots.append(paths)
                            slot_of_obj[id(paths)] = slot
                        route_slot[code] = slot
                    else:
                        route_slot[code] = -1
                status = route_slot[codes]
            ok = status >= 0
            hit = unresolved[ok]
            dst[hit] = cand[ok]
            game_slot[hit] = status[ok]
            unresolved = unresolved[~ok]
            cache.rejects += unresolved.size
        if unresolved.size:
            raise RuntimeError(
                f"no routable destination found for source"
                f" {int(src[unresolved[0]])} after {max_draws} draws;"
                f" topology too sparse for this game"
            )
        g0 += size
    if final_draws is not None:
        oracle._draws_since_step = final_draws

    return _arrays_from_slots(src, dst, game_slot, cache)


def _arrays_from_slots(
    src: np.ndarray,
    dst: np.ndarray,
    game_slot: np.ndarray,
    cache: _RoutedSlotCache,
) -> GamePlanArrays:
    """Pack a slot-deduped routed plan into :class:`GamePlanArrays`.

    The per-path Python work is proportional to the number of *distinct*
    candidate-path sets (and amortizes to zero while the slot cache is
    stable): each slot is packed once, and every game gathers its rows and
    its one contiguous run of hops by index.
    """
    n_games = len(src)
    slot_n_paths, slot_row_start, slot_hop_start, slot_hops, slot_path_len = (
        cache.packed_slots()
    )
    n_paths = slot_n_paths[game_slot] if n_games else np.zeros(0, dtype=np.int64)
    game_path_start = _offsets(n_paths)
    total = int(game_path_start[-1])
    path_game = np.repeat(np.arange(n_games, dtype=np.int64), n_paths)
    path_col = np.arange(total, dtype=np.int64) - game_path_start[path_game]
    first_row = slot_row_start[game_slot]
    path_len = slot_path_len[first_row[path_game] + path_col]
    # a slot's rows, hence its hops, are contiguous in the cache
    hop_lo = slot_hop_start[first_row]
    game_hops = slot_hop_start[slot_row_start[game_slot + 1]] - hop_lo
    return GamePlanArrays(
        n_games=n_games,
        src=src,
        dst=dst,
        n_paths=n_paths,
        game_path_start=game_path_start,
        path_game=path_game,
        path_col=path_col,
        path_start=_offsets(path_len),
        path_len=path_len,
        hop_nodes=slot_hops[segment_index(hop_lo, game_hops)],
        max_paths=int(n_paths.max()) if n_games else 0,
    )


def _random_arrays_core(
    oracle: RandomPathOracle,
    src: np.ndarray,
    src_rows: np.ndarray,
    others: np.ndarray,
    pos_in_others: np.ndarray,
) -> GamePlanArrays:
    """The draw core of the random sampler (:func:`_sample_random_stacked`).

    ``others`` holds one destination pool per *pool row* (a participant of
    one tournament); ``src_rows[g]`` names game ``g``'s pool row and
    ``pos_in_others`` the id -> column lookup within a row.  Pools from
    different tournaments are just different rows.
    """
    rng = oracle.rng
    n_games = len(src)
    n_others = others.shape[1]

    # destinations: uniform over the n - 1 others, as draw() does per game
    dst = others[src_rows, rng.integers(n_others, size=n_games)]

    # hop counts and conditional path counts, inverse-CDF as sample() does
    gen = oracle.generator
    hop_values = np.asarray(gen.hop_distribution.dist.values, dtype=np.int64)
    hop_cum = np.asarray(gen.hop_distribution.dist.cumulative)
    u = rng.random((n_games, 2))
    hop_idx = np.searchsorted(hop_cum, u[:, 0], side="right")
    hops = hop_values[hop_idx]
    pool_size = n_others - 1  # others minus the destination
    k = np.minimum(hops - 1, pool_size)
    if (k < 1).any():
        raise ValueError("participant pool too small for any path")
    # the count pmf of every drawn hop value as one table row; a right
    # bisection is the number of cumulative entries <= u (the +inf padding
    # never counts), so one comparison pass does every game's lookup
    drawn = np.flatnonzero(np.bincount(hop_idx, minlength=hop_values.size))
    rows = [
        gen.count_distribution.distribution_for(int(hop_values[h])) for h in drawn
    ]
    width = max(len(d.values) for d in rows)
    cum_table = np.full((hop_values.size, width), np.inf)
    value_table = np.zeros((hop_values.size, width), dtype=np.int64)
    for h, dist in zip(drawn, rows):
        cum_table[h, : len(dist.values)] = dist.cumulative
        value_table[h, : len(dist.values)] = dist.values
    count_idx = (cum_table[hop_idx] <= u[:, 1:]).sum(axis=1)
    n_paths = value_table[hop_idx, count_idx]

    total = int(n_paths.sum())
    game_path_start = _offsets(n_paths)
    path_game = np.repeat(np.arange(n_games, dtype=np.int64), n_paths)
    path_col = np.arange(total, dtype=np.int64) - game_path_start[path_game]

    # partial Fisher-Yates with *virtual* swaps: same index quantisation as
    # sample_distinct, same drawn values, but the per-path pool copy (the
    # plan's largest temporary by an order of magnitude) is never
    # materialised.  A real partial shuffle only ever reads position ``i``
    # and the drawn position ``j_i >= i`` at step ``i``, so the pool state
    # can be reconstructed per read: a position holds its original value
    # unless an earlier step swapped its displaced value there.  ``disp``
    # tracks those displaced values (``disp[l]`` is what step ``l`` left at
    # position ``j_l``); chains resolve because each fix-up consults only
    # earlier, already-resolved columns, latest write winning.  Work shrinks
    # with the step: paths sorted by k descending keep the rows still
    # shuffling at step ``i`` a contiguous prefix (swaps past a path's own
    # k are dead — never read — so skipping them changes nothing).
    k_path = k[path_game]
    path_start = _offsets(k_path)
    k_max = int(k_path.max())
    us = rng.random((total, k_max))
    # stable, k descending: an ascending sort of k_max - k in the smallest
    # dtype that holds it (a byte-wide key sorts by radix)
    key = (k_max - k_path).astype(np.min_scalar_type(k_max))
    order = np.argsort(key, kind="stable")
    alive = total - np.cumsum(np.bincount(k_path, minlength=k_max + 1))
    game_o = path_game[order]
    row_base = src_rows[game_o] * n_others
    flat = others.ravel()
    dest_pos = pos_in_others[src_rows, dst][game_o]
    # the destination's slot is overwritten by the (otherwise dead) last
    # pool element before the shuffle, exactly as sample_distinct excludes
    # the destination from the candidate pool
    last = flat[row_base + pool_size]
    # step i writes hop i of every path still shuffling, so every real hop
    # slot is written exactly once
    hop_base = path_start[:-1][order]

    hop_nodes = np.empty(int(path_start[-1]), dtype=np.int64)
    j_cols: list[np.ndarray] = []
    disp: list[np.ndarray] = []
    for i in range(k_max):
        a = int(alive[i])  # rows with k > i: a prefix, by construction
        j_i = i + (us[order[:a], i] * (pool_size - i)).astype(np.int64)
        base = row_base[:a]
        held = np.where(dest_pos[:a] == i, last[:a], flat[base + i])
        drawn = np.where(j_i == dest_pos[:a], last[:a], flat[base + j_i])
        for prior in range(i):
            j_prior = j_cols[prior][:a]
            np.copyto(held, disp[prior][:a], where=j_prior == i)
            np.copyto(drawn, disp[prior][:a], where=j_prior == j_i)
        j_cols.append(j_i)
        disp.append(held)
        hop_nodes[hop_base[:a] + i] = drawn

    return GamePlanArrays(
        n_games=n_games,
        src=src,
        dst=dst,
        n_paths=n_paths,
        game_path_start=game_path_start,
        path_game=path_game,
        path_col=path_col,
        path_start=path_start,
        path_len=k_path,
        hop_nodes=hop_nodes,
        max_paths=int(n_paths.max()),
    )


def plan_generation_arrays(
    oracle: PathOracle,
    seatings: Sequence[Sequence[int]],
    rounds: int,
    on_tournament_end=None,
) -> GamePlanArrays:
    """Draw *all* tournaments of a generation into one stacked plan.

    The returned :class:`GamePlanArrays` is **round-major across the
    stack**: with ``T`` tournaments of ``n`` seats each, game
    ``g = round * (T * n) + tournament * n + seat`` — every slate of
    ``T * n`` consecutive games is "round r of every tournament", which is
    the layout the fused engine's slate kernel consumes (its per-round
    source order is the concatenation of the seatings, constant across
    rounds, exactly like a single tournament's plan).

    :class:`RandomPathOracle` gets a natively stacked sampler (one draw
    core call over every tournament's pools at once).  Route-table and
    fallback oracles are planned per tournament — in seating order, so the
    topology clock, route provider scope and slot cache advance exactly as
    the sequential generation loop drives them — and interleaved into the
    stacked layout; ``on_tournament_end``, when given, fires after each
    tournament's plan (the per-tournament topology clocking hook that
    ``evaluate_stack`` owns on the unfused path).
    """
    seatings = [list(s) for s in seatings]
    if not seatings:
        raise ValueError("need at least one seating")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    n = len(seatings[0])
    if any(len(s) != n for s in seatings):
        raise ValueError(
            "all seatings of one fused generation must be the same size"
        )
    if isinstance(oracle, RandomPathOracle):
        plan = _sample_random_stacked(oracle, seatings, rounds)
        if on_tournament_end is not None:
            for _ in seatings:
                on_tournament_end()
        return plan
    plans = []
    for seating in seatings:
        plans.append(plan_tournament_arrays(oracle, seating * rounds, seating))
        if on_tournament_end is not None:
            on_tournament_end()
    return _interleave_plans(plans, rounds, n)


def _sample_random_stacked(
    oracle: RandomPathOracle, seatings: list[list[int]], rounds: int
) -> GamePlanArrays:
    """All tournaments' random draws through one core call.

    Each tournament contributes ``n`` pool rows (its participants' others);
    pools of different tournaments never mix, so duplicate ids across
    seatings are fine.  The games are laid out round-major across the
    stack (see :func:`plan_generation_arrays`).
    """
    parts = np.asarray(seatings, dtype=np.int64)  # (T, n)
    n_tournaments, n = parts.shape
    if n - 1 < 2:
        raise ValueError(
            "need at least 3 participants (source, destination, 1 intermediate)"
        )
    sorted_parts = np.sort(parts, axis=1)
    if (sorted_parts[:, 1:] == sorted_parts[:, :-1]).any():
        raise ValueError("each seating must contain distinct participants")

    # per-(tournament, participant) "others" pools, flattened to rows
    mask = parts[:, None, :] != parts[:, :, None]  # [t, i, j]: j != i
    others = (
        np.broadcast_to(parts[:, None, :], (n_tournaments, n, n))[mask]
        .reshape(n_tournaments * n, n - 1)
    )
    max_id = int(parts.max())
    pos_in_others = np.zeros((n_tournaments * n, max_id + 1), dtype=np.int64)
    np.put_along_axis(
        pos_in_others,
        others,
        np.broadcast_to(np.arange(n - 1), (n_tournaments * n, n - 1)),
        axis=1,
    )
    # slate source order = the seatings concatenated; every round repeats it
    flat_src = parts.reshape(-1)
    src = np.tile(flat_src, rounds)
    src_rows = np.tile(np.arange(n_tournaments * n, dtype=np.int64), rounds)
    return _random_arrays_core(oracle, src, src_rows, others, pos_in_others)


def _interleave_plans(
    plans: list[GamePlanArrays],
    rounds: int,
    n: int,
    id_offsets: Sequence[int] | None = None,
) -> GamePlanArrays:
    """Weave per-tournament plans into the stacked round-major layout.

    Tournament ``t``'s local game ``r * n + k`` becomes stacked game
    ``r * (T * n) + t * n + k``.  A (round, tournament) block of games owns
    one contiguous run of path rows and one of hops in its plan, so the
    weave concatenates whole runs; each game's candidates stay contiguous
    and in candidate order.  With ``id_offsets``, plan ``t``'s node ids
    (sources, destinations, hops) are shifted by ``id_offsets[t]`` in the
    woven arrays, so no shifted copy of any plan is made.
    """

    def weave(arrays: list[np.ndarray]) -> np.ndarray:
        # per-game arrays: (rounds, n) per plan -> (rounds, T, n)
        return np.stack([a.reshape(rounds, n) for a in arrays], axis=1).reshape(-1)

    src = weave([p.src for p in plans])
    dst = weave([p.dst for p in plans])
    n_paths = weave([p.n_paths for p in plans])
    row_cuts = [p.game_path_start[::n] for p in plans]
    hop_cuts = [p.path_start[cuts].tolist() for p, cuts in zip(plans, row_cuts)]
    row_cuts = [cuts.tolist() for cuts in row_cuts]
    lens, cols, runs = [], [], []
    for r in range(rounds):
        for t, plan in enumerate(plans):
            r0, r1 = row_cuts[t][r], row_cuts[t][r + 1]
            lens.append(plan.path_len[r0:r1])
            cols.append(plan.path_col[r0:r1])
            runs.append(plan.hop_nodes[hop_cuts[t][r] : hop_cuts[t][r + 1]])
    hop_nodes = np.concatenate(runs)
    if id_offsets is not None:
        shifts = np.asarray(id_offsets, dtype=np.int64)
        src.reshape(rounds, len(plans), n)[...] += shifts[:, None]
        dst.reshape(rounds, len(plans), n)[...] += shifts[:, None]
        # run k of the weave is plan k % T's: shift it in place
        pos = 0
        for k, run in enumerate(runs):
            hop_nodes[pos : pos + run.size] += shifts[k % len(plans)]
            pos += run.size
    path_len = np.concatenate(lens)
    n_games = src.size
    return GamePlanArrays(
        n_games=n_games,
        src=src,
        dst=dst,
        n_paths=n_paths,
        game_path_start=_offsets(n_paths),
        path_game=np.repeat(np.arange(n_games, dtype=np.int64), n_paths),
        path_col=np.concatenate(cols),
        path_start=_offsets(path_len),
        path_len=path_len,
        hop_nodes=hop_nodes,
        max_paths=int(n_paths.max()) if n_games else 0,
    )


def stack_replication_plans(
    plans: Sequence[GamePlanArrays], rounds: int, block: int
) -> GamePlanArrays:
    """Stack per-replication generation plans into one mega-slate.

    Each input is one replication's round-major generation plan (from
    :func:`plan_generation_arrays`, ``T`` tournaments of ``n`` seats: its
    slate is ``S = T * n`` games per round).  Replication ``r``'s game
    ``round * S + g`` becomes stacked game ``round * (R * S) + r * S + g``
    — i.e. ``round * (R * T * n) + rep * (T * n) + tournament * n + seat``
    — and every node id is shifted into the replication's private block
    ``[r * block, (r + 1) * block)``, which is what keeps the stacked
    engine's reputation state block-diagonal (games of different
    replications can never name the same node).

    Structurally each replication is "one very wide tournament" of ``S``
    seats, so the weave is exactly :func:`_interleave_plans`, which adds
    the block offsets to the woven arrays after its one concatenate.
    """
    if not plans:
        raise ValueError("need at least one replication plan")
    if rounds < 1:
        raise ValueError(f"rounds must be >= 1, got {rounds}")
    n_games = plans[0].n_games
    if n_games % rounds:
        raise ValueError(
            f"plan of {n_games} games does not divide into {rounds} rounds"
        )
    if any(p.n_games != n_games for p in plans):
        raise ValueError("all replication plans must be the same size")
    if len(plans) == 1:
        return plans[0]  # one replication already sits in block 0
    slate = n_games // rounds
    return _interleave_plans(
        list(plans), rounds, slate, [r * block for r in range(len(plans))]
    )
