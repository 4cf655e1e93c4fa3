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

from . import _HOME, __version__, _lazy_getattr
from .errors import Inadmissible, InputError, LaminateError, Refusal

# An engine name the commands call is imported on first use, by _load or
# by attribute access (PEP 562), and bound in this module's globals, where
# the commands read it: a process loads only its command's modules, and a
# name rebound here (a test's monkeypatch, a tracing wrapper) is the one
# called.  The package's public names, and four that are not public.
__getattr__ = _lazy_getattr(globals(), dict(
    _HOME, vector_length="normal",
    enumerate_quad_oct_solutions="bruteforce",
    extreme_ray_oracle="bruteforce", hilbert_oracle="bruteforce"))


def _load(*names):
    """Bind each of names here unless an earlier use or a rebinding did."""
    namespace = globals()
    for name in names:
        if name not in namespace:
            __getattr__(name)


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


def _check_limits(args):
    bound = getattr(args, "bound", None)
    if bound is not None and bound < 1:
        raise InputError("--bound must be >= 1, got %d" % bound)
    if args.max_coeff_bits is not None and args.max_coeff_bits < 0:
        raise InputError("--max-coeff-bits must be >= 0, got %d"
                         % args.max_coeff_bits)


def _emit(payload, output, pretty):
    if pretty:
        text = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    else:
        text = json.dumps(payload, sort_keys=True,
                          separators=(",", ":")) + "\n"
    if output:
        try:
            with open(output, "w", encoding="utf-8") as handle:
                handle.write(text)
        except OSError as exc:
            raise InputError("cannot write %s: %s" % (output, exc))
    else:
        sys.stdout.write(text)


def _read(path):
    try:
        with open(path, encoding="utf-8") as handle:
            return handle.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise InputError("cannot read %s: %s" % (path, exc))


def _load_triangulation(args):
    _load("parse_triangulation")
    return parse_triangulation(_read(args.input))


def _parse_ints(text, error, noun):
    """Comma-separated integers, or error naming the noun."""
    try:
        return tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise error("%s must be comma-separated integers" % noun)


def cmd_tri_info(args):
    _load("matching_system")
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


def _solution_listing(args, key, solve, oracle, *oracle_names):
    tri = _load_triangulation(args)
    solutions = solve(tri, args.almost_normal, args.max_coeff_bits)
    payload = {
        "count": len(solutions),
        key: [list(v) for v in solutions],
        "almost_normal": bool(args.almost_normal),
    }
    if args.bound:
        # The admissible points: whether a point is an extreme ray or
        # irreducible depends only on its own support, so one check over
        # them all agrees exactly when every maximal orthant's check does.
        # The brute-force oracles load only here.
        _load("enumerate_quad_oct_solutions", *oracle_names)
        points = enumerate_quad_oct_solutions(tri, args.bound,
                                              int(args.almost_normal))
        payload["oracle_bound"] = args.bound
        payload["oracle_agrees"] = oracle(tri, points) == solutions
    return payload


def cmd_ns_vertex(args):
    _load("vertex_solutions")
    return _solution_listing(
        args, "vertex_solutions", vertex_solutions,
        lambda tri, points: extreme_ray_oracle(
            points, matching_system(tri).rows, range(vector_length(tri))),
        "extreme_ray_oracle", "matching_system", "vector_length")


def cmd_ns_fundamental(args):
    _load("fundamental_solutions")
    return _solution_listing(args, "fundamental_solutions",
                             fundamental_solutions,
                             lambda tri, points: hilbert_oracle(points),
                             "hilbert_oracle")


def cmd_ns_build(args):
    _load("build_surface", "is_vertex_linking")
    tri = _load_triangulation(args)
    v = _parse_ints(args.vector, Inadmissible, "vector")
    surface = build_surface(tri, v)
    payload = surface.to_json_dict()
    payload["admissible"] = surface.admissibility.admissible
    payload["admissibility_messages"] = surface.admissibility.messages()
    payload["vertex_linking"] = is_vertex_linking(tri, v)
    return payload


def _model(args):
    _load("from_support")
    tri = _load_triangulation(args)
    return from_support(tri, _parse_ints(args.support, InputError, "support"),
                        max_coeff_bits=args.max_coeff_bits)


def cmd_bs_from_support(args):
    return _model(args).to_json_dict()


def cmd_bs_verdict(args):
    _load("carries_nonneg_chi")
    model = _model(args)
    payload = carries_nonneg_chi(model).to_json_dict()
    payload["support"] = sorted(model.support)
    return payload


def cmd_bs_zero_chi(args):
    _load("zero_chi_locus")
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
    _load("enumerate_genus", "antichain_certificate")
    model = _model(args)
    enumeration = enumerate_genus(model, args.genus)
    certificate = antichain_certificate(enumeration)
    payload = enumeration.to_json_dict()
    payload["antichain"] = bool(certificate)
    payload["support"] = sorted(model.support)
    return payload


def cmd_split_traintrack(args):
    _load("TrainTrack", "split", "cone_cover_check", "is_subtrack")
    try:
        data = json.loads(_read(args.file))
    except json.JSONDecodeError as exc:
        raise InputError("bad track JSON: %s" % exc)
    try:
        track = TrainTrack.from_json_dict(data)
    except (KeyError, ValueError, TypeError) as exc:
        raise InputError("bad track structure: %s" % exc)
    result = split(track, args.branch)
    cover = cone_cover_check(track, result.tracks(), args.max_coeff_bits)
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
                            "many bits (>= 0)")

    tri = sub.add_parser("tri", help="triangulation commands")
    tri_sub = tri.add_subparsers(dest="subcommand", required=True)
    p = tri_sub.add_parser("info", help="skeleton summary")
    common(p)
    p.set_defaults(func=cmd_tri_info)

    ns = sub.add_parser("ns", help="normal surface commands")
    ns_sub = ns.add_subparsers(dest="subcommand", required=True)
    for name, func, what in (
            ("vertex", cmd_ns_vertex, "vertex (extreme ray) solutions"),
            ("fundamental", cmd_ns_fundamental,
             "fundamental (Hilbert basis) solutions")):
        p = ns_sub.add_parser(name, help=what)
        common(p)
        p.add_argument("--bound", type=int, default=None,
                       help="verify against brute-force enumeration up to "
                            "this coordinate bound (>= 1)")
        p.add_argument("--almost-normal", action="store_true",
                       help="include octagon orthants")
        p.set_defaults(func=func)
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
        _check_limits(args)
        payload, code = args.func(args), 0
    except LaminateError as exc:
        payload = {"error": {"kind": exc.kind, "message": str(exc)}}
        code = 2 if isinstance(exc, Refusal) else 1
    try:
        _emit(payload, args.output, args.pretty)
    except InputError as exc:      # an unwritable --output: report on stdout
        _emit({"error": {"kind": exc.kind, "message": str(exc)}}, None,
              args.pretty)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
