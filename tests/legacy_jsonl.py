"""Files of the retired flat-file JSONL result store, for migration tests.

Each line is one result payload with sorted keys, exactly as the store's writer appended
it.  :data:`LEGACY_FIXTURE` is a file that writer produced, and ``test_store.py`` checks
:func:`append_jsonl` against it.
"""

from __future__ import annotations

import json
from pathlib import Path

#: A store written by the retired JSONL writer: the entry of
#: ``repro run --policy fedavg-random --devices 25 --rounds 4``, the same point
#: re-computed under the same hash, then one line written under spec schema 1.
LEGACY_FIXTURE = Path(__file__).parent / "service" / "legacy-results.jsonl"


def append_jsonl(path: Path, *results) -> Path:
    """Append one line per :class:`ExperimentResult` to a JSONL store file."""
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("a", encoding="utf-8") as handle:
        for result in results:
            handle.write(json.dumps(result.to_dict(), sort_keys=True) + "\n")
    return path
