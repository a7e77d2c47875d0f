"""cyarith cft: SU(2) WZW spectra, fusion, sum rules and Gepner level vectors."""

from itertools import chain

from ..errors import ValidationError
from . import common

# the output formats of each action, the default first
CFT_FORMATS = {"spectrum": ("csv", "json", "table"),
               "check": ("json", "table"),
               "fusion": ("json",),
               "fusion_field": ("json", "table"),
               "gepner": ("json", "table")}


def add_arguments(parser) -> None:
    common.add_arguments(parser)
    parser.add_argument("--level", type=int, help="level k")
    parser.add_argument("--spectrum", action="store_true",
                        help="N=2 primary spectrum (l, q, s, Delta, Q)")
    parser.add_argument("--check", choices=("kr", "kn"),
                        help="central charge (kr) or dilogarithm (kn) sum rule")
    parser.add_argument("--m", type=int, help="row index for --check kn")
    parser.add_argument("--fusion", action="store_true",
                        help="Verlinde fusion coefficients")
    parser.add_argument("--fusion-field", dest="fusion_field", action="store_true",
                        help="match quantum dimensions against cyclotomic units")
    parser.add_argument("--gepner", action="store_true",
                        help="enumerate level vectors with fixed central charge")
    parser.add_argument("--central-charge", type=int, default=9,
                        help="target central charge for --gepner (default 9)")
    parser.add_argument("--max-factors", type=int, default=9,
                        help="largest tensor length for --gepner (default 9)")


def main(args) -> None:
    from .. import cft
    actions = [n for n in CFT_FORMATS if getattr(args, n)]
    if len(actions) != 1:
        raise ValidationError(
            "pick exactly one of --spectrum / --check / --fusion / --fusion-field / --gepner")
    action = actions[0]
    fmt = common.output_format(args, *CFT_FORMATS[action])
    k = args.level
    if k is None and action != "gepner":
        raise ValidationError("cft needs --level for this action")
    csv_rows = table = ()

    if action == "gepner":
        levels = cft.gepner_levels(target_c=args.central_charge,
                                   max_factors=args.max_factors)
        payload = {"central_charge": args.central_charge, "max_factors": args.max_factors,
                   "count": len(levels), "levels": [list(t) for t in levels]}
        table = chain([f"{len(levels)} level vectors with c = {args.central_charge}"],
                      ("  " + " ".join(str(n) for n in t) for t in levels))
    elif action == "spectrum":
        md = cft.modular_data(k)
        rows = [[e.l, e.q, e.s,
                 e.delta.numerator, e.delta.denominator,
                 e.charge.numerator, e.charge.denominator]
                for e in cft.n2_spectrum(k).entries]
        csv_rows = chain([["l", "q", "s", "delta_num", "delta_den", "Q_num", "Q_den"]], rows)
        payload = {"level": k,
                   "central_charge": {"num": md.c.numerator, "den": md.c.denominator},
                   "entries": [{"l": r[0], "q": r[1], "s": r[2],
                                "delta": {"num": r[3], "den": r[4]},
                                "charge": {"num": r[5], "den": r[6]}}
                               for r in rows]}
        table = chain([f"N=2 spectrum at level {k}, c = {md.c}"],
                      (f"  l={r[0]:<3d} q={r[1]:<4d} s={r[2]:<3d} "
                       f"Delta={r[3]}/{r[4]}  Q={r[5]}/{r[6]}" for r in rows))
    elif action == "fusion":
        payload = {"level": k, "N": cft.verlinde_fusion(k)}
    elif action == "fusion_field":
        rep = cft.fusion_field_match(k)    # raises unless every unit matches
        payload = {"level": rep.k, "conductor": rep.conductor, "all_match": True,
                   "entries": [{"l": e.l, "value": e.value, "unit_index": e.unit_index,
                                "abs_err": e.abs_err} for e in rep.entries]}
        table = chain([f"level {k}: quantum dimensions vs units of conductor {rep.conductor}"],
                      (f"  l = {e.l:<3d} d = {e.value:.12f} " + (
                       f"= theta_{e.unit_index} (err {e.abs_err:.2e})" if e.unit_index
                       else "(gcd(l+1, k+2) > 1, no unit)") for e in rep.entries))
    elif args.check == "kr":
        residual = cft.check_kr_identity(k)    # raises past cft.IDENTITY_TOL
        payload = {"level": k, "identity": "kr", "residual": residual, "pass": True}
        table = [f"level {k} kr: residual {residual:.3e}  pass True"]
    else:
        if args.m is None:
            raise ValidationError("--check kn needs --m")
        res = cft.check_kn_identity(k, args.m)   # raises past cft.IDENTITY_TOL
        payload = {"level": k, "m": args.m, "identity": "kn",
                   "residual": res.residual,
                   "vanishing": list(res.vanishing),
                   "lhs": res.lhs, "rhs": res.rhs,
                   "pass": None if res.residual is None else True}
        line = (f"skipped, Q vanishes at l = {payload['vanishing']}"
                if res.residual is None
                else f"residual {res.residual:.3e}  pass True")
        table = [f"level {k} kn m = {args.m}: {line}"]
    common.emit(args, fmt, payload, csv_rows, table)
