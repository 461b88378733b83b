"""Candidate-generation strategies behind one ``SearchStrategy`` interface.

A strategy is a stateful proposer: the runner repeatedly calls
:meth:`SearchStrategy.propose` with everything scored so far (lower is
better) and evaluates whatever comes back, until the strategy returns an
empty batch.  Three built-ins cover the paper-relevant regimes:

* :class:`ExhaustiveSearch` — every candidate, one batch (what
  :func:`repro.search.explore` runs);
* :class:`RandomSearch` — a seeded uniform sample without replacement,
  for spaces too large to enumerate;
* :class:`BeamSearch` — greedy beam refinement: seed with a few
  candidates, then repeatedly expand the current best ``width``
  candidates through one-step neighborhood moves (adjacent loop-rank
  swaps, tile-size ladder steps) until a round stops improving.

Strategies only see candidates and float scores — never metrics modes or
executors — so every strategy composes with the runner's parallel
evaluation and two-phase pruning unchanged.
"""

from __future__ import annotations

import random
from typing import List, Optional, Sequence, Tuple

from .space import Candidate, MappingSpace

#: (candidate, score) pairs, lower scores better.
Scored = Sequence[Tuple[Candidate, float]]


class SearchStrategy:
    """Interface: propose candidate batches until satisfied."""

    name = "strategy"

    def reset(self, space: MappingSpace) -> None:
        """Called once before a search begins; clears proposal state."""

    def propose(self, space: MappingSpace, scored: Scored
                ) -> List[Candidate]:
        """The next batch to evaluate; an empty list ends the search.

        ``scored`` holds every previously proposed candidate with its
        score under the search metric (lower is better).  The runner
        deduplicates across batches, so re-proposing a seen candidate is
        harmless but wasted.
        """
        raise NotImplementedError


class ExhaustiveSearch(SearchStrategy):
    """Every candidate of the space, in one deterministic batch."""

    name = "exhaustive"

    def __init__(self):
        self._done = False

    def reset(self, space: MappingSpace) -> None:
        self._done = False

    def propose(self, space: MappingSpace, scored: Scored
                ) -> List[Candidate]:
        if self._done:
            return []
        self._done = True
        return space.all()


class RandomSearch(SearchStrategy):
    """A seeded uniform sample of the space, without replacement."""

    name = "random"

    def __init__(self, samples: int = 32, seed: int = 0):
        if samples < 1:
            raise ValueError("samples must be >= 1")
        self.samples = samples
        self.seed = seed
        self._done = False

    def reset(self, space: MappingSpace) -> None:
        self._done = False

    def propose(self, space: MappingSpace, scored: Scored
                ) -> List[Candidate]:
        if self._done:
            return []
        self._done = True
        return space.sample(self.samples, random.Random(self.seed))


class BeamSearch(SearchStrategy):
    """Greedy beam refinement over loop orders and tile sizes.

    Round zero seeds the beam with the space's natural candidate (the
    declared rank order, untiled) plus ``init - 1`` random candidates.
    Every later round takes the best ``width`` candidates scored so far
    and proposes their unvisited one-step neighbors
    (:meth:`MappingSpace.neighbors`).  The search stops when a round
    yields no new candidates, when ``patience`` consecutive rounds fail
    to improve the best score, or after ``max_rounds`` rounds.
    """

    name = "beam"

    def __init__(self, width: int = 4, init: int = 8, seed: int = 0,
                 max_rounds: Optional[int] = 16, patience: int = 1):
        if width < 1:
            raise ValueError("width must be >= 1")
        if init < 1:
            raise ValueError("init must be >= 1")
        if patience < 1:
            raise ValueError("patience must be >= 1")
        self.width = width
        self.init = init
        self.seed = seed
        self.max_rounds = max_rounds
        self.patience = patience
        self.reset(None)

    def reset(self, space: Optional[MappingSpace]) -> None:
        self._round = 0
        self._proposed: set = set()
        self._best: Optional[float] = None
        self._stale = 0

    def _seed_batch(self, space: MappingSpace) -> List[Candidate]:
        batch = [space.make(space.ranks, {})]
        rng = random.Random(self.seed)
        for cand in space.sample(self.init, rng):
            if cand not in batch:
                batch.append(cand)
        return batch[:self.init]

    def propose(self, space: MappingSpace, scored: Scored
                ) -> List[Candidate]:
        if self.max_rounds is not None and self._round >= self.max_rounds:
            return []
        if self._round == 0:
            self._round += 1
            batch = self._seed_batch(space)
            self._proposed.update(batch)
            return batch
        best_now = min((s for _, s in scored), default=None)
        if best_now is not None:
            if self._best is not None and best_now >= self._best:
                self._stale += 1
                if self._stale >= self.patience:
                    return []
            else:
                self._stale = 0
            self._best = best_now
        beam = [c for c, _ in sorted(scored, key=lambda cs: cs[1])]
        batch: List[Candidate] = []
        for cand in beam[:self.width]:
            for neighbor in space.neighbors(cand):
                if neighbor not in self._proposed:
                    self._proposed.add(neighbor)
                    batch.append(neighbor)
        self._round += 1
        return batch


def resolve_strategy(strategy, seed: int = 0, samples: int = 32,
                     beam_width: int = 4) -> SearchStrategy:
    """Resolve a strategy argument: an instance or a name.

    Names build defaults parameterized by the keyword arguments:
    ``"exhaustive"``, ``"random"`` (``samples``, ``seed``), ``"beam"``
    (``beam_width``, ``seed``).
    """
    if isinstance(strategy, SearchStrategy):
        return strategy
    if strategy == "exhaustive":
        return ExhaustiveSearch()
    if strategy == "random":
        return RandomSearch(samples=samples, seed=seed)
    if strategy == "beam":
        return BeamSearch(width=beam_width, seed=seed)
    raise ValueError(
        f"unknown search strategy {strategy!r}; known: 'exhaustive', "
        "'random', 'beam', or a SearchStrategy instance"
    )
