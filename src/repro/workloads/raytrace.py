"""Raytracing: the paper's third named application class.

A small Whitted-style tracer: a pinhole camera shoots one ray per pixel
into a scene of spheres over a ground plane, shading with Lambert
diffuse plus hard shadows. Pixels are embarrassingly parallel — the
paper's point about applications "able to exploit massive amounts of
parallelism" — but the inner loop is heavy on *divide and square root*,
so the non-pipelined shared unit (one per quad, 30/56 cycles) governs
in-quad scaling, a deliberate contrast with the FMA-dominated kernels.

The simulated render is verified pixel-exact against a host-side run of
the same code path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.chip import Chip
from repro.errors import WorkloadError
from repro.memory.address import make_effective
from repro.memory.interest_groups import IG_ALL
from repro.runtime.kernel import AllocationPolicy, Kernel
from repro.workloads.common import TimedSection, block_ranges

#: Scene: (center xyz, radius, albedo).
SPHERES = [
    ((0.0, 1.0, 4.0), 1.0, 0.9),
    ((1.8, 0.6, 3.2), 0.6, 0.6),
    ((-1.6, 0.8, 5.0), 0.8, 0.75),
]
LIGHT = (4.0, 6.0, 0.0)
GROUND_Y = 0.0
GROUND_ALBEDO = 0.5


@dataclass(frozen=True)
class RayTraceParams:
    """One render."""

    width: int = 32
    height: int = 24
    n_threads: int = 4
    policy: AllocationPolicy = AllocationPolicy.BALANCED
    verify: bool = True

    def __post_init__(self) -> None:
        if self.width < 1 or self.height < 1:
            raise WorkloadError("image must be at least 1x1")
        if self.width * self.height < self.n_threads:
            raise WorkloadError("need at least one pixel per thread")


@dataclass
class RayTraceResult:
    """Measured outcome of one render."""

    params: RayTraceParams
    cycles: int
    verified: bool


# ---------------------------------------------------------------------------
# The pure math (shared by the simulated threads and the oracle)
# ---------------------------------------------------------------------------
def _sub(a, b):
    return (a[0] - b[0], a[1] - b[1], a[2] - b[2])


def _dot(a, b):
    return a[0] * b[0] + a[1] * b[1] + a[2] * b[2]


def _hit_sphere(origin, direction, center, radius):
    """Smallest positive t of a ray-sphere intersection, or None."""
    oc = _sub(origin, center)
    b = _dot(oc, direction)
    c = _dot(oc, oc) - radius * radius
    disc = b * b - c
    if disc < 0:
        return None
    root = math.sqrt(disc)
    t = -b - root
    if t > 1e-4:
        return t
    t = -b + root
    return t if t > 1e-4 else None


def _trace_pixel(px: int, py: int, width: int, height: int) -> float:
    """Shade one pixel; returns a grayscale value in [0, 1]."""
    aspect = width / height
    u = (2 * (px + 0.5) / width - 1) * aspect
    v = 1 - 2 * (py + 0.5) / height
    direction = (u, v, 2.0)
    norm = math.sqrt(_dot(direction, direction))
    direction = (direction[0] / norm, direction[1] / norm,
                 direction[2] / norm)
    origin = (0.0, 1.2, 0.0)

    best_t, best = None, None
    for sphere in SPHERES:
        t = _hit_sphere(origin, direction, sphere[0], sphere[1])
        if t is not None and (best_t is None or t < best_t):
            best_t, best = t, sphere
    # Ground plane y = 0.
    if direction[1] < 0:
        t = (GROUND_Y - origin[1]) / direction[1]
        if t > 1e-4 and (best_t is None or t < best_t):
            best_t, best = t, "ground"
    if best is None:
        return 0.1  # sky

    point = (origin[0] + best_t * direction[0],
             origin[1] + best_t * direction[1],
             origin[2] + best_t * direction[2])
    if best == "ground":
        normal, albedo = (0.0, 1.0, 0.0), GROUND_ALBEDO
    else:
        center, radius, albedo = best
        normal = _sub(point, center)
        n = math.sqrt(_dot(normal, normal))
        normal = (normal[0] / n, normal[1] / n, normal[2] / n)

    to_light = _sub(LIGHT, point)
    dist = math.sqrt(_dot(to_light, to_light))
    to_light = (to_light[0] / dist, to_light[1] / dist, to_light[2] / dist)
    shadow_origin = (point[0] + 1e-3 * normal[0],
                     point[1] + 1e-3 * normal[1],
                     point[2] + 1e-3 * normal[2])
    lit = 1.0
    for sphere in SPHERES:
        t = _hit_sphere(shadow_origin, to_light, sphere[0], sphere[1])
        if t is not None and t < dist:
            lit = 0.15
            break
    lambert = max(0.0, _dot(normal, to_light))
    return min(1.0, 0.08 + albedo * lambert * lit)


def _raytrace_thread(ctx, me: int, params: RayTraceParams, image_base,
                     pixels: range, image, section: TimedSection):
    width, height = params.width, params.height
    ig = IG_ALL
    section.record_start(me, ctx.time)
    for p in pixels:
        px, py = p % width, p // width
        # Primary ray setup: a handful of FLOPs plus one normalize
        # (divide + sqrt on the shared non-pipelined unit).
        yield from ctx.fp_stream(6, op="fma")
        yield from ctx.fp_sqrt()
        yield from ctx.fp_div()
        # Intersection tests: per sphere, dot products + discriminant
        # (FMAs) and a square root when it may hit.
        for _ in SPHERES:
            yield from ctx.fp_stream(8, op="fma")
            yield from ctx.fp_sqrt()
            ctx.branch()
        # Shading: normal + light normalize, shadow tests.
        yield from ctx.fp_stream(6, op="fma")
        yield from ctx.fp_sqrt()
        yield from ctx.fp_div()
        for _ in SPHERES:
            yield from ctx.fp_stream(8, op="fma")
            ctx.branch()
        value = _trace_pixel(px, py, width, height)
        image[py, px] = value
        yield from ctx.store_f64(
            make_effective(image_base + 8 * p, ig), value)
        ctx.charge_ops(3)
    section.record_finish(me, ctx.time)


def run_raytrace(params: RayTraceParams,
                 chip: Chip | None = None) -> RayTraceResult:
    """Render the scene once."""
    if chip is None:
        chip = Chip()
    kernel = Kernel(chip, params.policy)
    if params.n_threads > kernel.max_software_threads:
        raise WorkloadError("not enough usable hardware threads")

    n_pixels = params.width * params.height
    image_base = kernel.heap.alloc_f64_array(n_pixels)
    image = np.zeros((params.height, params.width))
    section = TimedSection.empty()
    ranges = block_ranges(n_pixels, params.n_threads)
    for t in range(params.n_threads):
        kernel.spawn(_raytrace_thread, t, params, image_base, ranges[t],
                     image, section, name=f"rt-{t}")
    kernel.run()

    verified = False
    if params.verify:
        expected = np.array([
            [_trace_pixel(px, py, params.width, params.height)
             for px in range(params.width)]
            for py in range(params.height)
        ])
        sim = chip.memory.backing.f64_view(
            image_base, n_pixels).reshape(params.height, params.width)
        verified = bool(np.array_equal(image, expected)) \
            and bool(np.array_equal(sim, expected))
    return RayTraceResult(params=params, cycles=section.elapsed,
                          verified=verified)
