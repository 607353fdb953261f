"""`faasim repro`."""

from __future__ import annotations

from . import repro as rp
from .cli import Report, _load_catalog


def repro(args) -> Report:
    catalog, source, digest = _load_catalog(args)
    checks = rp.run_all(catalog)
    passed, failed, external = (sum(c.status == status for c in checks) for status in (rp.PASS, rp.FAIL, rp.EXTERNAL))
    result = {"checks": [c.to_json_dict() for c in checks], "passed": passed, "failed": failed, "external": external}
    rows = [[c.status.upper(), c.location, c.check_id, c.claim] for c in checks]
    return Report("repro", {}, result, [source], digest, grids=[(["status", "location", "check", "claim"], rows)],
                  footer=f"\n{passed} passed, {failed} failed, {external} external (not checked)\n",
                  failed=failed > 0)
