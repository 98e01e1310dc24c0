"""Schema versioning for persisted runtime records.

Two kinds of records outlive the process that wrote them: run-report
JSON summaries and JSONL trace events.  Each carries a
``schema_version`` of the form
``"<major>.<minor>"``:

* **major** bumps on incompatible shape changes (renamed, retyped or
  removed fields).  Readers reject records from an unknown major instead of
  silently misreading them.
* **minor** bumps on additive changes (new optional fields).  Readers
  accept any minor of a known major and ignore fields they do not know.

Records written before versioning existed carry no field at all; they
are grandfathered in as major 1 (their shape *is* the 1.x shape).
"""

#: version stamped on every record written by this tree
#: (1.1: additive ``waves`` field on run-report summaries, per-point
#: ``n`` section on coverage-result exports; 1.2: additive robustness
#: counters — ``worker_crashes`` / ``poisoned`` / ``pool_rebuilds`` /
#: ``cache_quarantined`` on summaries, ``crashes`` on trace task events;
#: 1.3: additive ATPG counters — ``atpg_sensitizations`` /
#: ``atpg_backtracks`` / ``atpg_gate_evaluations`` on summaries and in
#: the stats counters of trace events; 2.0: the four counters of the
#: removed factorization-reuse Newton — LU factorizations, LU reuses,
#: bypassed devices and forced exact passes — left summaries and the
#: stats counters of trace events)
SCHEMA_VERSION = "2.0"

#: majors this tree knows how to read (a 1.x record carries the four
#: removed counters as fields a 2.x reader ignores)
KNOWN_MAJORS = (1, 2)


class SchemaVersionError(ValueError):
    """A stored record's ``schema_version`` has an unknown major."""


def parse_version(text):
    """``"<major>.<minor>"`` -> ``(major, minor)`` ints.

    Raises :class:`SchemaVersionError` on malformed strings (a record
    whose version field cannot be parsed is as unreadable as one from
    an unknown major).
    """
    try:
        major, _, minor = str(text).partition(".")
        return int(major), int(minor or 0)
    except (TypeError, ValueError):
        raise SchemaVersionError(
            "malformed schema_version {!r}".format(text)) from None


def stamp(record):
    """Stamp ``record`` (a dict) with the current schema version."""
    record.setdefault("schema_version", SCHEMA_VERSION)
    return record


def check_schema_version(record, what="record"):
    """Validate a stored record's version; returns the record.

    Accepts any minor of a known major and pre-versioning records
    (missing field); raises :class:`SchemaVersionError` for unknown
    majors — forward-compat records from a future tree must not be
    half-read.
    """
    version = record.get("schema_version") if isinstance(record, dict) \
        else None
    if version is None:
        return record
    major, _ = parse_version(version)
    if major not in KNOWN_MAJORS:
        raise SchemaVersionError(
            "{} has schema_version {} (major {}); this tree reads "
            "major(s) {}".format(what, version, major,
                                 ", ".join(map(str, KNOWN_MAJORS))))
    return record
