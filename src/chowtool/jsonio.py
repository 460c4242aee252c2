"""JSON schemas and SVG rendering for the command line.

Polytope JSON:       {"name": optional str, "dim": n, "vertices": [[int, ...], ...]}
Triangulation JSON:  {"dim": d, "simplices": [[[int, ...], ...], ...]}, each
                     simplex d+1 affinely independent vertices of one length

Coordinates must be integers; anything else is a ParseError.  Fractions are
serialized as strings "p/q" so that verdict output is exact and
byte-reproducible.
"""

import json
from fractions import Fraction

from .errors import ParseError
from .geometry import Polytope, adjacent_vertices
from .linalg import simplex_relative_volume_times_factorial
from . import triangulation


def _require_int(x, where):
    if isinstance(x, bool) or not isinstance(x, int):
        raise ParseError(f"{where}: expected an integer, got {x!r}")
    return x


def polytope_from_json(data):
    if not isinstance(data, dict):
        raise ParseError("polytope JSON must be an object")
    if "vertices" not in data:
        raise ParseError("polytope JSON needs a 'vertices' field")
    verts = data["vertices"]
    if not isinstance(verts, list) or not verts:
        raise ParseError("'vertices' must be a nonempty list")
    rows = []
    for row in verts:
        if not isinstance(row, list):
            raise ParseError("each vertex must be a list of integers")
        rows.append(tuple(_require_int(x, "vertex coordinate") for x in row))
    if len({len(row) for row in rows}) != 1:
        raise ParseError("vertices of mixed length")
    if not rows[0]:
        raise ParseError("each vertex needs at least one coordinate")
    dim = data.get("dim")
    if dim is not None and _require_int(dim, "dim") != len(rows[0]):
        raise ParseError(f"dim = {dim} does not match vertex length {len(rows[0])}")
    name = data.get("name")
    if name is not None and not isinstance(name, str):
        raise ParseError("'name' must be a string")
    return Polytope(rows, name=name)


def polytope_to_json(P):
    return {
        "name": P.name,
        "dim": P.dim,
        "vertices": [list(v) for v in P.vertices],
    }


def _load_json(path):
    """The JSON value in the file at path; a file that cannot be read, is
    not UTF-8 or is not JSON is a ParseError."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from None
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def load_polytope(path):
    return polytope_from_json(_load_json(path))


def triangulation_from_json(data):
    if not isinstance(data, dict) or "simplices" not in data:
        raise ParseError("triangulation JSON needs a 'simplices' field")
    cells = data["simplices"]
    if not isinstance(cells, list) or not cells:
        raise ParseError("'simplices' must be a nonempty list")
    simplices = []
    for cell in cells:
        if not isinstance(cell, list) or not cell or not all(isinstance(p, list) for p in cell):
            raise ParseError("each simplex must be a nonempty list of integer vectors")
        simplices.append([tuple(_require_int(x, "simplex coordinate") for x in p) for p in cell])
    if len({len(p) for pts in simplices for p in pts}) != 1:
        raise ParseError("simplex vertices of mixed length")
    if len({len(pts) for pts in simplices}) != 1:
        raise ParseError("simplices of mixed dimension")
    if any(simplex_relative_volume_times_factorial(pts) == 0 for pts in simplices):
        raise ParseError("simplex vertices must be affinely independent")
    dim = len(simplices[0]) - 1
    if "dim" in data and _require_int(data["dim"], "dim") != dim:
        raise ParseError(f"dim = {data['dim']} does not match the simplex dimension {dim}")
    return triangulation.Triangulation.from_blocks(dim, triangulation.cell_blocks(simplices))


def load_triangulation(path):
    return triangulation_from_json(_load_json(path))


def fraction_str(x):
    f = Fraction(x)
    return str(f.numerator) if f.denominator == 1 else f"{f.numerator}/{f.denominator}"


def verdict_to_json(P, verdict):
    cert = None
    if verdict.certificate is not None:
        c = verdict.certificate
        cert = {
            "kind": c.kind,
            "k": c.k,
            "gap": fraction_str(c.gap),
            "detail": c.detail,
        }
        if c.function is not None:
            cert["function_values"] = [
                [list(p), fraction_str(v)] for p, v in sorted(c.function.values.items())
            ]
    return {
        "polytope": polytope_to_json(P),
        "status": verdict.status,
        "checks": [
            {
                "name": c.name,
                "pass": c.passed,
                "inputs": c.detail,
                "exact_values": {k: v for k, v in c.data},
            }
            for c in verdict.checks
        ],
        "certificate": cert,
    }


def dump_json(data):
    return json.dumps(data, indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# SVG wireframes (dimensions 1..3)
# ---------------------------------------------------------------------------

_ISO = ((Fraction(866, 1000), Fraction(-866, 1000), Fraction(0)),
        (Fraction(500, 1000), Fraction(500, 1000), Fraction(-1)))


def _project(p):
    if len(p) == 1:
        return (Fraction(p[0]), Fraction(0))
    if len(p) == 2:
        return (Fraction(p[0]), Fraction(-p[1]))
    x = sum(c * v for c, v in zip(_ISO[0], p))
    y = sum(c * v for c, v in zip(_ISO[1], p))
    return (x, -y)


def _edges(P):
    """Vertex pairs (v, w), v before w, to draw; a segment is its own edge."""
    if P.dim == 1:
        return [P.vertices]
    return [(v, w) for v in P.vertices for w in adjacent_vertices(P, v) if v < w]


def render_svg(P):
    """Fixed isometric wireframe: vertex dots, origin highlighted."""
    if P.dim > 3:
        raise ParseError("SVG rendering supports dimensions 1..3 only")
    pts = {v: _project(v) for v in P.vertices}
    origin = (0,) * P.dim
    pts[origin] = _project(origin)
    xs = [float(p[0]) for p in pts.values()]
    ys = [float(p[1]) for p in pts.values()]
    lo_x, hi_x = min(xs) - 0.6, max(xs) + 0.6
    lo_y, hi_y = min(ys) - 0.6, max(ys) + 0.6
    scale = 60
    width = (hi_x - lo_x) * scale
    height = (hi_y - lo_y) * scale

    def pix(p):
        return (
            round((float(p[0]) - lo_x) * scale, 2),
            round((float(p[1]) - lo_y) * scale, 2),
        )

    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.2f} {height:.2f}">'
    ]
    if P.name:
        lines.append(f"<title>{P.name}</title>")
    for v, w in _edges(P):
        (x1, y1), (x2, y2) = pix(pts[v]), pix(pts[w])
        lines.append(
            f'<line x1="{x1}" y1="{y1}" x2="{x2}" y2="{y2}" '
            'stroke="gray" stroke-width="2"/>'
        )
    for v in P.vertices:
        x, y = pix(pts[v])
        lines.append(f'<circle cx="{x}" cy="{y}" r="4" fill="#444"/>')
    ox, oy = pix(pts[origin])
    lines.append(f'<circle cx="{ox}" cy="{oy}" r="4" fill="green"/>')
    lines.append("</svg>")
    return "\n".join(lines)
