"""Every reader of a snapshot side agrees on what a valid side is.

A side's sections — ``starts_`` and ``ends_`` — hold the saved
relation's endpoint columns in relation order.  Each case below damages
one outer section (or the container's version), re-seals the
container's section CRCs (so only the side's own checks can notice) and
records what every consumer does with the file:

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
import struct
import sys
from array import array

import pytest

from repro.core.interval import Interval
from repro.core.join import OIPJoin
from repro.service.snapshots import ServingGeneration
from repro.storage.metrics import CostWeights
from repro.storage.snapshot import (
    MaintainedIndex,
    SnapshotError,
    _pack_sections,
    _parse_sections,
    fsck_index,
    save_index,
)
from repro.workloads import long_lived_mixture

#: Every snapshot here is saved, and every join run, under the paper's
#: weights.
PAPER = CostWeights.main_memory()

#: The outer relation these mutations are written against: rows 1 and 4
#: are [12460, 12460] and [564, 565].  The paper's weights save it at
#: k=12, d=1663, o=52, so row 1 lies in granule 7, [11693, 13356).
GRANULE = 1663


def _relations():
    domain = Interval(1, 20_000)
    return tuple(
        long_lived_mixture(200, 0.3, time_range=domain, seed=seed, name=name)
        for seed, name in ((1, "outer"), (2, "inner"))
    )


def _resealed(mutate):
    """A mutation of the container's sections, its section CRCs
    re-sealed."""

    def rewrite(blob):
        sections = _parse_sections(blob)
        mutate(sections)
        return _pack_sections(sections)

    return rewrite


def _edit(name, change):
    """A mutation that edits section *name* as an ``array('q')``."""

    def mutate(sections):
        values = array("q")
        values.frombytes(sections[name])
        change(values)
        sections[name] = values.tobytes()

    return _resealed(mutate)


def _version_1(blob):
    # The version field follows the 4-byte magic; the header has no CRC.
    return blob[:4] + struct.pack("<I", 1) + blob[8:]


def _move_start(starts):
    starts[1] -= GRANULE


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


#: Each case rewrites the container's bytes.
MUTATIONS = {
    "starts_short": _edit("starts_outer", lambda s: s.pop()),
    # No reader checks granules any more: only the saved relation's
    # endpoint fingerprint catches a start moved by a whole granule or
    # within its granule.
    "start_in_other_granule": _edit("starts_outer", _move_start),
    "start_within_granule": _edit("starts_outer", _set(1, 12459)),
    "end_before_start": _edit("ends_outer", _set(4, 563)),
    # The planner's statistics are advisory: no reader checks them
    # against the partitioning it builds.
    "stats_partitions": _resealed(_stats_partitions),
    "starts_missing": _resealed(lambda sections: sections.pop("starts_outer")),
    "section_ragged": _resealed(
        lambda sections: sections.update(
            starts_outer=sections["starts_outer"] + b"\x00"
        )
    ),
    # A file of the previous format, which stored partition directories.
    "version_1": _version_1,
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
EXPECTED["starts_missing"] = {
    "join": "degraded:missing_section",
    "serve": "missing_section",
    "maintain": "missing_section",
    "fsck": (["missing_section"], False),
}
EXPECTED["stats_partitions"] = {
    "join": "loaded",
    "serve": "ok",
    "maintain": "ok",
    "fsck": ([], True),
}
EXPECTED["version_1"] = {
    "join": "degraded:version",
    "serve": "version",
    "maintain": "version",
    "fsck": (["version"], False),
}
#: The cases whose join falls back to a rebuild.
DEGRADED = sorted(
    case for case in MUTATIONS if EXPECTED[case]["join"].startswith("degraded")
)


def _tamper(path, case):
    with open(path, "rb") as handle:
        blob = handle.read()
    with open(path, "wb") as handle:
        handle.write(MUTATIONS[case](blob))


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
        result = OIPJoin(weights=PAPER, index_path=path).join(outer, inner)
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
    save_index(path, outer, inner, weights=PAPER)
    _tamper(path, case)
    verdict = fsck_index(path, repair=False)
    join, _ = _join_outcome(path, outer, inner, OIPJoin(weights=PAPER).join(outer, inner))
    return {
        "join": join,
        "serve": _outcome(lambda: ServingGeneration.load(path)),
        "maintain": _outcome(lambda: MaintainedIndex.open(path)),
        "fsck": (verdict["problems"], verdict["loadable"]),
    }


@pytest.mark.parametrize("case", sorted(MUTATIONS))
def test_every_consumer_rejects_the_damaged_side(tmp_path, case):
    assert observe(tmp_path, case) == EXPECTED[case]


@pytest.mark.parametrize("case", DEGRADED)
def test_degraded_join_equals_the_rebuild(tmp_path, case):
    outer, inner = _relations()
    path = str(tmp_path / "damaged.oip")
    save_index(path, outer, inner, weights=PAPER)
    _tamper(path, case)
    rebuild = OIPJoin(weights=PAPER).join(outer, inner)
    _, result = _join_outcome(path, outer, inner, rebuild)
    assert result is not None and not result.details["index"]["loaded"]
    assert result.pairs == rebuild.pairs
    assert result.counters.snapshot() == rebuild.counters.snapshot()
    assert result.resilience.snapshot() == rebuild.resilience.snapshot()


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as scratch:
        json.dump(
            {case: observe(scratch, case) for case in sorted(MUTATIONS)},
            sys.stdout,
            indent=1,
        )
    print()
