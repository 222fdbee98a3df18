"""Every reader of a snapshot side agrees on what a valid side is.

A side's sections — ``dir_``, ``pos_``, ``starts_``, ``ends_`` and
``blocks_`` — describe Algorithm 1's output: the creation-order
partition directory and, per partition ``[i, j]``, the tuples whose
start lies in granule ``i`` and end in granule ``j``.  Each case below
damages one outer section, re-seals the container's section CRCs (so
only the side's own checks can notice) and records what every consumer
does with the file:

* ``join`` — ``OIPJoin(index_path=...)``: ``degraded:<reason>``, or
  ``loaded`` / ``loaded:wrong_pairs``, or ``raised:<error class>``;
* ``serve`` — ``ServingGeneration.load``: ``ok``, the snapshot error's
  reason, or ``raised:<error class>``;
* ``maintain`` — ``MaintainedIndex.open``: likewise;
* ``fsck`` — ``fsck_index``'s ``problems`` and ``loadable``.

Run this module as a script to print the observed matrix.
"""

import json
import os
import sys
from array import array

import pytest

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.core.relation import TemporalRelation, TemporalTuple
from repro.service.snapshots import ServingGeneration
from repro.storage.snapshot import (
    MaintainedIndex,
    SnapshotError,
    SnapshotFormatError,
    _pack_sections,
    _parse_sections,
    fsck_index,
    save_index,
)
from repro.workloads import long_lived_mixture

#: The outer side's saved layout these mutations are written against:
#: k=12, d=1663, o=52, 14 tuples per block; directory entries begin
#: (0, 0, 15), (1, 1, 18), (0, 1, 7), (2, 2, 10), ...  Row 0 is the
#: tuple [564, 565] of entry (0, 0); row 15 is [2462, 2462], the first
#: of entry (1, 1), whose granule is [1715, 3378).
GRANULE = 1663


def _relations(tuple_payloads=False):
    domain = Interval(1, 20_000)
    relations = [
        long_lived_mixture(200, 0.3, time_range=domain, seed=seed, name=name)
        for seed, name in ((1, "outer"), (2, "inner"))
    ]
    if tuple_payloads:
        # Not JSON-stable: no blocks_ or payloads_ section is stored.
        relations = [
            TemporalRelation(
                [TemporalTuple(t.start, t.end, (t.payload,))
                 for t in r.tuples],
                name=r.name,
            )
            for r in relations
        ]
    return tuple(relations)


def _edit(name, change):
    """A mutation that edits section *name* as an ``array('q')``."""

    def mutate(sections):
        values = array("q")
        values.frombytes(sections[name])
        change(values)
        sections[name] = values.tobytes()

    return mutate


def _shift(source, target):
    """Move one tuple's share of the directory from entry *source* to
    entry *target*: the counts still sum to the cardinality."""

    def change(directory):
        directory[3 * source + 2] -= 1
        directory[3 * target + 2] += 1

    return _edit("dir_outer", change)


def _swap_entries(directory):
    directory[3:6], directory[6:9] = directory[6:9], directory[3:6]


def _duplicate_position(positions):
    positions[1] = positions[0]


def _move_start(starts):
    # Row 15 opens entry (1, 1, 18); one granule earlier is granule 0.
    starts[15] -= GRANULE


def _stats_partitions(sections):
    stats = json.loads(sections["stats"])
    stats["outer"]["partitions"] += 1
    sections["stats"] = json.dumps(
        stats, sort_keys=True, separators=(",", ":")
    ).encode()


def _set(index, value):
    def change(values):
        values[index] = value

    return change


MUTATIONS = {
    "dir_not_triples": _edit("dir_outer", lambda d: d.append(0)),
    "entry_off_grid": _edit("dir_outer", _set(1, 12)),
    "entries_out_of_order": _edit("dir_outer", _swap_entries),
    "count_shifted": _shift(2, 3),
    "pos_out_of_range": _edit("pos_outer", _set(0, 200)),
    "pos_duplicated": _edit("pos_outer", _duplicate_position),
    "starts_short": _edit("starts_outer", lambda s: s.pop()),
    "start_in_other_granule": _edit("starts_outer", _move_start),
    # Both endpoints stay in their granules.
    "end_before_start": _edit("ends_outer", _set(0, 563)),
    # Every per-partition check holds; only the saved relation's
    # endpoint fingerprint catches it.
    "start_within_granule": _edit("starts_outer", _set(15, 2461)),
    "blocks_count": _edit("blocks_outer", lambda b: b.pop()),
    "stats_partitions": _stats_partitions,
    "pos_missing": lambda sections: sections.pop("pos_outer"),
    "section_ragged": lambda sections: sections.update(
        starts_outer=sections["starts_outer"] + b"\x00"
    ),
}

#: What every consumer does with each damaged snapshot.
EXPECTED = {
    case: {
        "join": "degraded:inconsistent",
        "serve": "inconsistent",
        "maintain": "inconsistent",
        "fsck": (["inconsistent"], False),
    }
    for case in MUTATIONS
}
EXPECTED["pos_missing"] = {
    "join": "degraded:missing_section",
    "serve": "missing_section",
    "maintain": "missing_section",
    "fsck": (["missing_section"], False),
}


def _tamper(path, mutate):
    with open(path, "rb") as handle:
        sections = _parse_sections(handle.read())
    mutate(sections)
    with open(path, "wb") as handle:
        handle.write(_pack_sections(sections))


def _outcome(call):
    try:
        call()
    except SnapshotError as error:
        return error.reason
    except Exception as error:  # the outcome is recorded, not raised
        return f"raised:{type(error).__name__}"
    return "ok"


def _join_outcome(path, outer, inner, rebuild):
    try:
        result = OIPJoin(index_path=path).join(outer, inner)
    except Exception as error:  # the outcome is recorded, not raised
        return f"raised:{type(error).__name__}", None
    index = result.details["index"]
    if not index["loaded"]:
        return f"degraded:{index['reason']}", result
    if result.pairs != rebuild.pairs:
        return "loaded:wrong_pairs", result
    return "loaded", result


def observe(directory, case):
    """Save, damage and hand one snapshot to every consumer."""
    outer, inner = _relations()
    path = os.path.join(str(directory), f"{case}.oip")
    save_index(path, outer, inner)
    _tamper(path, MUTATIONS[case])
    verdict = fsck_index(path, repair=False)
    join, _ = _join_outcome(path, outer, inner, OIPJoin().join(outer, inner))
    return {
        "join": join,
        "serve": _outcome(lambda: ServingGeneration.load(path)),
        "maintain": _outcome(lambda: MaintainedIndex.open(path)),
        "fsck": (verdict["problems"], verdict["loadable"]),
    }


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_every_consumer_rejects_the_damaged_side(tmp_path, case):
    assert observe(tmp_path, case) == EXPECTED[case]


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_degraded_join_equals_the_rebuild(tmp_path, case):
    outer, inner = _relations()
    path = str(tmp_path / "damaged.oip")
    save_index(path, outer, inner)
    _tamper(path, MUTATIONS[case])
    rebuild = OIPJoin().join(outer, inner)
    _, result = _join_outcome(path, outer, inner, rebuild)
    assert result is not None and not result.details["index"]["loaded"]
    assert result.pairs == rebuild.pairs
    assert result.counters.snapshot() == rebuild.counters.snapshot()
    assert result.resilience.snapshot() == rebuild.resilience.snapshot()


class TestDirectoryDisagreesWithColumns:
    """A CRC-valid snapshot whose directory moves one tuple into the
    neighbouring partition.  A join that trusted it would return 1,027
    of the rebuild's 1,042 pairs (tuple payloads) or fail mid-probe with
    a checksum error (stable payloads); every reader must refuse it."""

    def _damaged(self, tmp_path, tuple_payloads, source, target):
        outer, inner = _relations(tuple_payloads)
        path = str(tmp_path / "shifted.oip")
        save_index(path, outer, inner)
        _tamper(path, _shift(source, target))
        return path, outer, inner

    @pytest.mark.parametrize(
        "tuple_payloads, source, target", [(True, 2, 3), (False, 1, 2)]
    )
    def test_join_degrades_to_the_rebuild(
        self, tmp_path, tuple_payloads, source, target
    ):
        path, outer, inner = self._damaged(
            tmp_path, tuple_payloads, source, target
        )
        rebuild = OIPJoin().join(outer, inner)
        result = OIPJoin(index_path=path).join(outer, inner)
        assert result.details["index"]["reason"] == "inconsistent"
        assert result.pairs == rebuild.pairs
        assert result.counters.snapshot() == rebuild.counters.snapshot()
        assert result.resilience.snapshot() == rebuild.resilience.snapshot()

    def test_serving_and_maintenance_refuse_it(self, tmp_path):
        path, _, _ = self._damaged(tmp_path, False, 1, 2)
        for load in (ServingGeneration.load, MaintainedIndex.open):
            with pytest.raises(SnapshotFormatError) as caught:
                load(path)
            assert caught.value.reason == "inconsistent"


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        json.dump(
            {case: observe(scratch, case) for case in sorted(MUTATIONS)},
            sys.stdout,
            indent=1,
        )
    print()
