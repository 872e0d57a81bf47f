#!/usr/bin/env python3
"""Regenerate perfbench/reference.json, the frozen data run.py checks against.

Run from the repository root:

    python3 perfbench/regen_reference.py

It takes several minutes: the sieve-deep digest comes from the pure
python reference engine.  Every frozen verdict is cross-checked here
against independent evidence before it is written:

  * a prime index enters the pool only when test_jk says Prime, its
    certificate verifies, and refcheck's Miller-Rabin agrees;
  * every search verdict agrees with Miller-Rabin, and every Prime in it
    has a certificate that verifies;
  * each sieve digest is taken from the "python" engine.
"""

from __future__ import annotations

import json
import sys
import time
from functools import partial

from run import FULL, REFERENCE, SMOKE, load_package, op_counts, search_key, \
    sieve_digest, sieve_key

# Indices that passed a base-3 Fermat test, one band per size class of
# the prove-large pool.  Only those proven below are written out.
CANDIDATE_BANDS = ([3148, 3230, 3779], [5537, 5759],
                   [7069, 7189, 7540, 7729])


def log(msg: str) -> None:
    print(f"[{time.strftime('%H:%M:%S')}] {msg}", file=sys.stderr, flush=True)


def proven(cm, probable_prime, k: int) -> dict | None:
    """Frozen op counts for a proven prime index k, or None."""
    verdict, stats = cm.test_jk(k)
    if not verdict.is_prime:
        return None
    ok, vstats = cm.verify_certificate(cm.parse(cm.serialize(
        cm.build_certificate(k))))
    if not ok or not probable_prime(cm.jk_closed(k).value):
        raise RuntimeError(f"k={k}: test_jk says Prime but the certificate "
                           "or Miller-Rabin disagrees")
    return {"test": op_counts(stats), "verify": op_counts(vstats)}


def frozen_search(cm, probable_prime, args) -> list:
    rows = []
    for k, verdict, stats in cm.search(*args, workers=1):
        if verdict.is_prime != probable_prime(cm.jk_closed(k).value):
            raise RuntimeError(f"search{args}: k={k} {verdict.label()} "
                               "disagrees with Miller-Rabin")
        if verdict.is_prime:
            ok, _ = cm.verify_certificate(cm.build_certificate(k))
            if not ok:
                raise RuntimeError(f"k={k}: certificate does not verify")
        rows.append([k, verdict.label(), *op_counts(stats)])
    return rows


def main() -> int:
    cm = load_package()
    from cm7prime.refcheck import probable_prime
    prove = partial(proven, cm, probable_prime)

    ref: dict = {"prove": {}, "search": {}, "sieve": {}}
    searches = {FULL.search, FULL.small_search, SMOKE.search}
    for args in sorted(searches):
        log(f"search{args}")
        ref["search"][search_key(args)] = frozen_search(cm, probable_prime, args)
    known = [row[0] for row in ref["search"][search_key(FULL.search)]
             if row[1] == "Prime"]

    bands = []
    for band in CANDIDATE_BANDS:
        kept = []
        for k in band:
            log(f"proving k={k}")
            counts = prove(k)
            if counts is None:
                log(f"k={k} is not prime; left out")
                continue
            ref["prove"][str(k)] = counts
            kept.append(k)
        bands.append(kept)
    for k in sorted({FULL.small_k, SMOKE.small_k, *SMOKE.pool}):
        ref["prove"][str(k)] = prove(k)
    missing = [k for k in FULL.pool if str(k) not in ref["prove"]]
    if missing:
        raise RuntimeError(f"default pool index {missing} is not proven")
    ref["bands"] = bands
    ref["prime_indices"] = sorted(set(known) | {k for b in bands for k in b})

    for args in sorted({FULL.sieve, FULL.small_sieve, SMOKE.sieve}):
        log(f"sieve_range{args} with the python engine")
        report = cm.sieve_range(*args, engine="python")
        ref["sieve"][sieve_key(args)] = {
            "engine": "python", "sha256": sieve_digest(report),
            "survivors": sum(report.survivor_mask[1:])}

    REFERENCE.write_text(json.dumps(ref, indent=1) + "\n")
    log(f"wrote {REFERENCE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
