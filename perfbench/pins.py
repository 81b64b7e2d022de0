"""Result digests and the pinned expectations in ``expected/``.

A digest is the sha256 of a job result's canonical JSON (dataclass
fields, sorted keys, floats at full precision), so two results have the
same digest exactly when every simulated statistic is the same.

``expected/<workload>.json`` pins the digest of every job label per
seed, at the workload's trace length, with the reason each seed's pins
were (re)generated.  Seeds 0-99 and the default seed 1234 are pinned;
a run given any other seed also checks the default seed's batch.  Pins change only through ``run.py --regen-pins
REASON``: a change that only speeds up the simulator must leave them
alone.
"""

from __future__ import annotations

import dataclasses
import hashlib
import json
import pathlib
from typing import Dict, List, Optional

EXPECTED_DIR = pathlib.Path(__file__).resolve().parent / "expected"


def digest(result) -> str:
    payload = {"value": dataclasses.asdict(result.value),
               "probes": result.probes}
    blob = json.dumps(payload, sort_keys=True, default=repr)
    return hashlib.sha256(blob.encode()).hexdigest()


def digests(labels: List[str], results) -> Dict[str, str]:
    return {label: digest(r) for label, r in zip(labels, results)}


def _path(workload: str) -> pathlib.Path:
    return EXPECTED_DIR / f"{workload}.json"


def load(workload: str, n: int, seed: int) -> Optional[Dict[str, str]]:
    """The pinned label -> digest map for (n, seed), or None when this
    seed is not pinned at this trace length."""
    path = _path(workload)
    if not path.is_file():
        return None
    data = json.loads(path.read_text())
    if data.get("n") != n:
        return None
    entry = data.get("seeds", {}).get(str(seed))
    return None if entry is None else dict(entry["jobs"])


def save(workload: str, n: int, seed: int, jobs: Dict[str, str],
         reason: str) -> None:
    """Pin ``jobs`` for (n, seed).  A different n drops every older
    seed: pins at another trace length can never match again."""
    if not reason.strip():
        raise ValueError("regenerating pins needs a reason")
    path = _path(workload)
    data = json.loads(path.read_text()) if path.is_file() else {}
    if data.get("n") != n:
        data = {"workload": workload, "n": n, "seeds": {}}
    data["seeds"][str(seed)] = {"reason": reason, "jobs": jobs}
    data["seeds"] = dict(sorted(data["seeds"].items(),
                                key=lambda kv: int(kv[0])))
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(data, indent=1, sort_keys=True) + "\n")
