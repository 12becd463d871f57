"""Parity sweep of the closed-form functions: one record per case, for
comparing two source trees value bit for value bit and refusal for refusal.

    python tests/_parity_sweep.py --src SRC --out FILE.json
    python tests/_parity_sweep.py --compare OLD.json NEW.json
    python tests/_parity_sweep.py --independence FILE.json

SRC is the directory that holds the ``bondkit`` package (a tree's ``src``).
Each case is a public pricer, partials or coefficient function, or
``pde_residual`` with a partials, at a parameter set, a maturity and a rate
input (scalar rates of 0, of 5e-324 to 1e30 and of inf, NaN and negative
ones, 1501-node grids from 0 and from 1e-6, and grids with one NaN or
negative rate).  It is called in each error mode, with NumPy's warnings
ignored (``ignore``), raised as errors (``error``) or with
``np.errstate(all="raise")`` (``raise``), from each store state:

* ``cold``: an empty store;
* ``warm``: after the same call twice (the first sights an array, the
  second keeps its values);
* ``filled``: after the same call twice under the next error mode;
* ``cross``: for a function of a maturity, after the same call twice at
  another maturity, so that kept terms meet a maturity they were not made at.

A record holds, item by item, the value's type, shape, SHA-256 of its bytes
and writeable flag, or the refusal's type and message.  The file has one
record per line in a fixed order, so two trees keep every bit and every
refusal alike exactly when ``diff`` finds no line between their files.
``--compare`` reads two such files: it prints how many records changed
their value bits, by function, and every record whose refusal changed (a
value that became a refusal, or the reverse, counts as one), and exits 1
if any refusal changed.  ``--independence`` reads one file: it lists the
(case, tau, state) groups whose outcome differs by error mode and the
(case, tau, mode) groups whose outcome differs by store state, and exits 1
if there is any.  pytest does not collect this file.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import warnings
from pathlib import Path

MODES = ("ignore", "error", "raise")
STATES = ("cold", "warm", "filled", "cross")
#: Maturities: a plain one, one where beta = 2 overflows B^2 silently (354)
#: and one where its expm1 overflows (400), and one whose tau^6 overflows.
TAUS = (1.0, 354.0, 400.0, 1e52)


def _cases(bk, np):
    """(label, call, tau or None) for every case; ``call(tau)`` runs it."""
    P = bk.ModelParams
    params = [P(0.00315, beta, sigma, gamma)
              for sigma, beta in ((0.0894, -0.0555), (1e100, -0.0555), (0.0894, 0.0), (0.0894, 2.0))
              for gamma in (0.0, 0.5, 0.75, 1.32)]
    params.append(P(0.00315, -0.0555, 1e160, 0.75))  # q, the first nested term, overflows

    def grid(low=0.0, bad=None):
        r = np.linspace(low, 0.15, 1501)
        if bad is not None:
            r[700] = bad
        return r

    rates = {**{name: float(name) for name in ("0.05", "0.0", "5e-324", "1e-12", "2.0", "1e30", "inf", "nan")},
             "-0.01": -0.01, "grid0": grid(), "grid1e-6": grid(1e-6),
             "grid+nan": grid(bad=np.nan), "grid+neg": grid(bad=-0.01)}
    tau_free = (bk.q_factor, bk.k4, bk.k5, bk.c5, bk.c5_derivatives, bk.c6)
    with_tau = (bk.cw_log_price, bk.cw_partials, bk.improved_log_price, bk.vasicek_log_price,
                bk.vasicek_partials, bk.cir_log_price, bk.cir_partials)
    partials = (bk.cw_partials, bk.cir_partials, bk.vasicek_partials)
    for p in params:
        yield f"b_factor {p.beta!r}", lambda tau, p=p: bk.b_factor(p.beta, tau), TAUS
        for name, r in rates.items():
            for fn in tau_free:
                yield f"{fn.__name__} {p} {name}", lambda tau, fn=fn, p=p, r=r: fn(p, r), None
            for fn in with_tau:
                yield f"{fn.__name__} {p} {name}", lambda tau, fn=fn, p=p, r=r: fn(p, tau, r), TAUS
            for f in partials:
                yield (f"pde_residual {f.__name__} {p} {name}",
                       lambda tau, f=f, p=p, r=r: bk.pde_residual(f, p, tau, r), TAUS)


def _outcome(call, tau, mode, np):
    """The record of one call in one error mode."""
    with warnings.catch_warnings(), np.errstate(all="raise" if mode == "raise" else None):
        warnings.simplefilter("error" if mode == "error" else "ignore")
        try:
            out = call(tau)
        except Exception as e:  # noqa: BLE001 - a refusal is an outcome too
            return {"refused": type(e).__name__, "message": str(e)}
    return [{"type": type(v).__name__, "shape": list(np.shape(v)),
             "sha256": hashlib.sha256(np.asarray(v).tobytes()).hexdigest(),
             "writeable": bool(getattr(v, "flags", None) and v.flags.writeable)}
            for v in (out if isinstance(out, tuple) else (out,))]


def sweep(bk, np):
    """Every record, in a fixed order."""
    clear = bk.approximation._Powers._kept.cache_clear
    for label, call, taus in _cases(bk, np):
        for tau in taus or (None,):
            for k, mode in enumerate(MODES):
                for state in STATES:
                    if state == "cross" and tau is None:
                        continue
                    clear()
                    before, fill = {"cold": (None, tau), "warm": (mode, tau), "filled": (MODES[k - 1], tau),
                                    "cross": (mode, 2.0 if tau == 1.0 else 1.0)}[state]
                    if before is not None:
                        for _ in range(2):
                            _outcome(call, fill, before, np)
                    yield {"case": label, "tau": tau, "mode": mode, "state": state,
                           "outcome": _outcome(call, tau, mode, np)}


def compare(old, new):
    """(changed values by function, records whose refusal changed) between
    two lists of records of one sweep, record by record."""
    if [_where(a) for a in old] != [_where(b) for b in new]:
        raise SystemExit("the two files hold different cases")
    values, refusals = {}, []
    for a, b in zip(old, new):
        if a["outcome"] == b["outcome"]:
            continue
        if isinstance(a["outcome"], dict) or isinstance(b["outcome"], dict):
            refusals.append((a, b))
        else:
            fn = a["case"].split()[0]
            values[fn] = values.get(fn, 0) + 1
    return values, refusals


def _where(record):
    return record["case"], record["tau"], record["mode"], record["state"]


def independence(records):
    """(groups whose outcome differs by error mode, groups whose outcome
    differs by store state): the keys (case, tau, state) and (case, tau,
    mode) of the groups that hold more than one outcome."""
    by_mode, by_state = {}, {}
    for record in records:
        outcome = json.dumps(record["outcome"], sort_keys=True)
        case, tau, mode, state = _where(record)
        by_mode.setdefault((case, tau, state), set()).add(outcome)
        by_state.setdefault((case, tau, mode), set()).add(outcome)
    return ([key for key, seen in by_mode.items() if len(seen) > 1],
            [key for key, seen in by_state.items() if len(seen) > 1])


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--src", help="directory holding the bondkit package")
    ap.add_argument("--out", help="file to write the records to")
    ap.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"), help="compare two record files")
    ap.add_argument("--independence", metavar="FILE",
                    help="list the groups of a record file whose outcome differs by error mode or store state")
    args = ap.parse_args(argv)
    if args.independence:
        by_mode, by_state = independence(json.loads(Path(args.independence).read_text()))
        for groups, what in ((by_mode, "(case, tau, state) groups differ by error mode"),
                             (by_state, "(case, tau, mode) groups differ by store state")):
            print(f"{len(groups)} {what}" + "".join(f"\n  {' | '.join(map(str, key))}" for key in groups))
        return 1 if by_mode or by_state else 0
    if args.compare:
        old, new = (json.loads(Path(path).read_text()) for path in args.compare)
        values, refusals = compare(old, new)
        print(f"{sum(values.values())} of {len(old)} records changed value bits"
              + "".join(f"\n  {fn}: {n}" for fn, n in sorted(values.items())))
        print(f"{len(refusals)} records changed refusal")
        for a, b in refusals:
            print(f"  {' | '.join(map(str, _where(a)))}: {a['outcome']} -> {b['outcome']}")
        return 1 if refusals else 0
    if not (args.src and args.out):
        ap.error("give --src and --out, --compare OLD NEW or --independence FILE")
    sys.path.insert(0, args.src)
    import numpy as np

    import bondkit as bk
    import bondkit.approximation  # noqa: F401 - the store lives here

    n = 0
    with open(args.out, "w") as fh:
        fh.write("[\n")
        for record in sweep(bk, np):
            fh.write(("" if n == 0 else ",\n") + json.dumps(record, sort_keys=True))
            n += 1
        fh.write("\n]\n")
    print(f"{n} records from {bk.__file__} to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
