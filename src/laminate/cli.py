"""
Command-line interface.

Every command reads its inputs, computes, and writes one JSON document
with sorted keys to stdout (or --output).  Identical invocations produce
byte-identical output.  Exit codes: 0 success, 1 input error, 2 refusal
(for example UnboundedRefusal or an exceeded coefficient or work budget).
"""

import argparse
import json
import os
import sys
from fractions import Fraction

from . import __version__
from .branched import carries_nonneg_chi, from_support, zero_chi_locus
from .bruteforce import (enumerate_quad_oct_solutions, extreme_ray_oracle,
                         hilbert_oracle, in_support)
from .cones import extreme_rays, hilbert_basis
from .errors import InputError, LaminateError, Refusal
from .finiteness import antichain_certificate, enumerate_genus
from .normal import (is_admissible, is_vertex_linking, matching_cone,
                     matching_system, iter_orthant_supports, parse_vector)
from .surfaces import build_surface
from .traintracks import TrainTrack, cone_cover_check, is_subtrack, split
from .triangulation import parse_triangulation


def _thread_cap():
    raw = os.environ.get("LAMINATE_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
    except ValueError:
        raise InputError("LAMINATE_THREADS must be an integer, got %r" % raw)
    if cap < 1:
        raise InputError("LAMINATE_THREADS must be >= 1, got %d" % cap)
    return cap


def _jsonable(obj):
    if isinstance(obj, Fraction):
        return str(obj) if obj.denominator != 1 else str(int(obj))
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable(x) for x in obj]
    if isinstance(obj, frozenset):
        return sorted(obj)
    return obj


def _emit(payload, args):
    payload = _jsonable(payload)
    if args.pretty:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
    if args.output:
        with open(args.output, "w", encoding="utf-8") as handle:
            handle.write(text)
    else:
        sys.stdout.write(text)


def _load_triangulation(args):
    try:
        with open(args.input, encoding="utf-8") as handle:
            return parse_triangulation(handle.read())
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (args.input, exc))


def _parse_support(text):
    try:
        return frozenset(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise InputError("support must be comma-separated integers")


def cmd_tri_info(args):
    tri = _load_triangulation(args)
    return {
        "tet_count": tri.tet_count,
        "face_count": tri.face_count,
        "edge_count": tri.edge_count,
        "vertex_count": tri.vertex_count,
        "edge_degrees": tri.edge_degrees(),
        "orientable": True,
        "matching_equations": len(matching_system(tri)),
        "gluings": tri.to_json_dict()["gluings"],
    }


def _solution_listing(args, use_hilbert):
    tri = _load_triangulation(args)
    system = matching_system(tri)
    merged = set()
    verified = None
    oracle_points = None
    if args.bound:
        oracle_points = enumerate_quad_oct_solutions(tri, args.bound)
        verified = True
    for support in iter_orthant_supports(tri, args.almost_normal):
        cone = matching_cone(tri, support, system)
        if use_hilbert:
            found = hilbert_basis(cone, max_coeff_bits=args.max_coeff_bits)
        else:
            found = extreme_rays(cone, max_coeff_bits=args.max_coeff_bits)
        merged.update(found)
        if oracle_points is not None:
            points = [p for p in oracle_points if in_support(p, support)]
            if use_hilbert:
                oracle = hilbert_oracle(points)
            else:
                oracle = extreme_ray_oracle(points, system.rows, support)
            if oracle != sorted(found):
                verified = False
    solutions = sorted(merged)
    key = "fundamental_solutions" if use_hilbert else "vertex_solutions"
    payload = {
        "count": len(solutions),
        key: [list(v) for v in solutions],
        "almost_normal": bool(args.almost_normal),
    }
    if verified is not None:
        payload["oracle_bound"] = args.bound
        payload["oracle_agrees"] = verified
    return payload


def cmd_ns_vertex(args):
    return _solution_listing(args, use_hilbert=False)


def cmd_ns_fundamental(args):
    return _solution_listing(args, use_hilbert=True)


def cmd_ns_build(args):
    tri = _load_triangulation(args)
    system = matching_system(tri)
    v = parse_vector(args.vector, tri)
    report = is_admissible(tri, v, system)
    surface = build_surface(tri, v, system)
    payload = surface.to_json_dict()
    payload["admissible"] = report.admissible
    payload["admissibility_messages"] = report.messages()
    payload["vertex_linking"] = is_vertex_linking(tri, v)
    return payload


def _model(args):
    tri = _load_triangulation(args)
    return from_support(tri, _parse_support(args.support),
                        max_coeff_bits=args.max_coeff_bits)


def cmd_bs_from_support(args):
    return _model(args).to_json_dict()


def cmd_bs_verdict(args):
    model = _model(args)
    payload = carries_nonneg_chi(model).to_json_dict()
    payload["support"] = sorted(model.support)
    return payload


def cmd_bs_zero_chi(args):
    model = _model(args)
    vertices = zero_chi_locus(model)
    return {
        "support": sorted(model.support),
        "count": len(vertices),
        "vertices": [[str(x) for x in v] for v in vertices],
    }


def cmd_heegaard_enumerate(args):
    if args.genus < 2:
        raise InputError("heegaard enumerate needs --genus >= 2, got %d"
                         % args.genus)
    model = _model(args)
    enumeration = enumerate_genus(model, args.genus)
    certificate = antichain_certificate(enumeration)
    payload = enumeration.to_json_dict()
    payload["antichain"] = bool(certificate)
    payload["support"] = sorted(model.support)
    return payload


def cmd_split_traintrack(args):
    try:
        with open(args.file, encoding="utf-8") as handle:
            data = json.load(handle)
    except OSError as exc:
        raise InputError("cannot read %s: %s" % (args.file, exc))
    except json.JSONDecodeError as exc:
        raise InputError("bad track JSON: %s" % exc)
    try:
        track = TrainTrack.from_json_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError("bad track structure: %s" % exc)
    result = split(track, args.branch)
    cover = cone_cover_check(track, result.tracks())
    payload = {
        "branch": args.branch,
        "cover": cover.to_json_dict(),
        "results": {},
        "subtrack": {
            "central_in_left": is_subtrack(result.central.track,
                                           result.left.track),
            "central_in_right": is_subtrack(result.central.track,
                                            result.right.track),
        },
    }
    for ct in result.tracks():
        payload["results"][ct.name] = {
            "track": ct.track.to_json_dict(),
            "carrying_map": [list(row) for row in ct.carrying_map],
            "new_branches": list(ct.new_branches),
        }
    return payload


def build_parser():
    parser = argparse.ArgumentParser(
        prog="laminate",
        description="Exact normal-surface, branched-surface and train-track "
                    "computations over closed orientable triangulations.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, needs_input=True):
        if needs_input:
            p.add_argument("--input", required=True,
                           help="triangulation gluing file")
        p.add_argument("--output", help="write JSON here instead of stdout")
        p.add_argument("--pretty", action="store_true",
                       help="indent the JSON output")
        p.add_argument("--max-coeff-bits", type=int, default=None,
                       help="abort if intermediate integers exceed this "
                            "many bits")

    tri = sub.add_parser("tri", help="triangulation commands")
    tri_sub = tri.add_subparsers(dest="subcommand", required=True)
    p = tri_sub.add_parser("info", help="skeleton summary")
    common(p)
    p.set_defaults(func=cmd_tri_info)

    ns = sub.add_parser("ns", help="normal surface commands")
    ns_sub = ns.add_subparsers(dest="subcommand", required=True)
    p = ns_sub.add_parser("vertex", help="vertex (extreme ray) solutions")
    common(p)
    p.add_argument("--bound", type=int, default=None,
                   help="verify against brute-force enumeration up to this "
                        "coordinate bound")
    p.add_argument("--almost-normal", action="store_true",
                   help="include octagon orthants")
    p.set_defaults(func=cmd_ns_vertex)
    p = ns_sub.add_parser("fundamental", help="fundamental (Hilbert basis) "
                                              "solutions")
    common(p)
    p.add_argument("--bound", type=int, default=None)
    p.add_argument("--almost-normal", action="store_true")
    p.set_defaults(func=cmd_ns_fundamental)
    p = ns_sub.add_parser("build", help="rebuild the surface of a vector")
    common(p)
    p.add_argument("--vector", required=True,
                   help="comma-separated coordinates")
    p.set_defaults(func=cmd_ns_build)

    bs = sub.add_parser("bs", help="branched surface commands")
    bs_sub = bs.add_subparsers(dest="subcommand", required=True)
    for name, func in (("from-support", cmd_bs_from_support),
                       ("verdict", cmd_bs_verdict),
                       ("zero-chi", cmd_bs_zero_chi)):
        p = bs_sub.add_parser(name)
        common(p)
        p.add_argument("--support", required=True,
                       help="comma-separated coordinate indices")
        p.set_defaults(func=func)

    heegaard = sub.add_parser("heegaard", help="fixed-genus enumeration")
    h_sub = heegaard.add_subparsers(dest="subcommand", required=True)
    p = h_sub.add_parser("enumerate")
    common(p)
    p.add_argument("--support", required=True)
    p.add_argument("-g", "--genus", type=int, required=True)
    p.set_defaults(func=cmd_heegaard_enumerate)

    tt = sub.add_parser("split", help="train track splitting")
    tt_sub = tt.add_subparsers(dest="subcommand", required=True)
    p = tt_sub.add_parser("traintrack")
    common(p, needs_input=False)
    p.add_argument("--file", required=True, help="track JSON file")
    p.add_argument("--branch", required=True, help="large branch to split")
    p.set_defaults(func=cmd_split_traintrack)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        _thread_cap()
        payload = args.func(args)
    except Refusal as exc:
        _emit({"error": {"kind": exc.kind, "message": str(exc)}}, args)
        return 2
    except LaminateError as exc:
        _emit({"error": {"kind": exc.kind, "message": str(exc)}}, args)
        return 1
    _emit(payload, args)
    return 0


if __name__ == "__main__":
    sys.exit(main())
