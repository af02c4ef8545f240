"""Seeded request streams shared by every workload.

A stream is a sequence of :class:`Request` records.  Each names a *key*
(an integer the workload maps to a concrete request) and a *class* that
the stream fixes by design, from how recently the key was last asked
for:

``miss``   a key never requested before (a fresh computation);
``dup``    a fresh key requested twice at once (the second copy should
           coalesce onto the first); both copies count in the miss
           latency class;
``hit``    one of ``hot`` keys, re-requested while it is certainly still
           among the ``capacity`` most recently used keys;
``spill``  an old miss key, re-requested once after at least
           ``capacity + slack`` keys have been inserted since, so an LRU
           of that capacity has certainly evicted it (``slack`` covers
           inserts that concurrent requests make out of stream order).

The service workload sizes its LRU to ``capacity``, so the classes are
exactly memory hits, disk hits and misses there.  On the fleet, which
reuses no result, the same classes show what a repeated request costs
when nothing is reused.

Classes come in a fixed template per block of 20 requests (13 hit,
2 spill, 3 miss, one dup pair), so every seed gives the same class
shares and only the order and the drives change.  Each block leads with
its hits; the seed shuffles the order of the rest.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Iterator

#: One block of the stream: class -> slots per block ("dup" is a pair).
TEMPLATE = {"hit": 13, "spill": 2, "miss": 3, "dup": 1}


@dataclass(frozen=True)
class Request:
    index: int
    key: int
    kind: str  # "hit" | "spill" | "miss" | "dup"

    @property
    def latency_class(self) -> str:
        return "miss" if self.kind == "dup" else self.kind


def iter_stream(
    seed: int,
    *,
    capacity: int = 16,
    hot: int = 4,
    slack: int = 12,
) -> Iterator[Request]:
    """The seeded stream, without end; a dup pair is two consecutive
    requests with the same key.

    Starts with ``hot`` misses that create the hot keys.  A ``spill``
    slot falls back to a ``miss`` while no old key is eligible yet, so
    the first blocks hold more misses; every request keeps the class
    it was generated with, which is what the workloads check against.
    """
    if hot + 2 >= capacity:
        raise ValueError("the hot set must fit well inside the capacity")
    rng = random.Random(seed)
    index = 0
    next_key = 0
    inserts = 0  # keys put into the cache so far (miss, dup, spill load)
    last_touch: dict[int, int] = {}  # hot key -> request index
    spill_pool: list[tuple[int, int]] = []  # (key, inserts when created)

    def fresh() -> int:
        nonlocal next_key, inserts
        next_key += 1
        inserts += 1
        return next_key - 1

    hot_keys = []
    for _ in range(hot):
        key = fresh()
        hot_keys.append(key)
        last_touch[key] = index
        yield Request(index, key, "miss")
        index += 1
    while True:
        slots = [kind for kind, count in TEMPLATE.items() for _ in range(count)]
        rng.shuffle(slots)
        slots.sort(key=lambda kind: kind != "hit")  # stable: hits lead
        for kind in slots:
            if kind == "hit":
                # Least recently touched hot key: every hot key is
                # touched at least once per ``hot`` hits.
                key = min(hot_keys, key=last_touch.__getitem__)
            elif kind == "spill" and (
                eligible := [
                    i for i, (_, made) in enumerate(spill_pool)
                    if inserts - made >= capacity + slack
                ]
            ):
                key, _ = spill_pool.pop(rng.choice(eligible))
                inserts += 1  # a disk load re-inserts the key
            else:
                kind = "dup" if kind == "dup" else "miss"
                key = fresh()
                if kind == "miss":
                    spill_pool.append((key, inserts))
            copies = 2 if kind == "dup" else 1
            for _ in range(copies):
                if kind == "hit":
                    last_touch[key] = index
                yield Request(index, key, kind)
                index += 1
