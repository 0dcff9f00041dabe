"""Linear rotatable-antenna array kernel.

Element directive gain follows the 3GPP vertical element pattern: a quadratic
dB rolloff about boresight, clamped by the side-lobe limit and the
front-to-back ratio.  Each element of the array can be rotated individually,
which shifts the pattern argument seen by that element; the rotation changes
amplitudes only, while the phase structure of the array response is the plain
uniform-linear-array steering vector.

Angles follow one convention throughout.  A direction psi is measured from
the array axis, so psi = 90 degrees is broadside.  An element rotation theta
is an offset from broadside: the pattern argument an element sees toward psi
is ``psi - theta``, the pattern peaks at an argument of 90 degrees, and so the
element's boresight points at ``90 + theta``.  theta = 0 is the fixed,
broadside orientation, aiming an element at psi takes ``theta = psi - 90``,
and the allowed rotation range is symmetric about theta = 0.

Two functions give the array gain.  :func:`array_gain`, built on
:func:`composite_response`, takes any stack of directions and rotation
vectors; the weight step, the swarm fitness and every reported gain use it.
:func:`grid_gain` takes one rotation vector and a 1-D grid of directions and
evaluates the steering sum by Horner's rule in ``exp(j 2 pi d cos psi)``; the
pattern sampler uses it.  The two agree to rounding (see grid_gain).  Both
read their element amplitudes from one kernel, :func:`element_amplitude`,
one ``exp`` per entry.

All public interfaces take angles in degrees.  Gains are linear power ratios
unless the name says dB.  Every function here is pure and safe to call
concurrently.
"""

import math
from dataclasses import dataclass, fields

import numpy as np

MAX_GAIN_DBI = 20.0            # N = 64 certifies to 60 dBi, not to 100
MAX_ETA_DB = 80.0              # |eta_max_db|; by -90 dB some go uncertified
MAX_SPACING_WAVELENGTHS = 1e6  # steering phase good to ~2e-6 rad at N = 1024


@dataclass(frozen=True)
class RadiationPattern:
    """Parameters of the vertical element pattern (all strictly positive)."""

    max_gain_dbi: float = 8.0
    beamwidth_3db_deg: float = 65.0
    sidelobe_limit_db: float = 30.0
    front_to_back_db: float = 30.0

    def __post_init__(self):
        for f in fields(self):
            if not getattr(self, f.name) > 0:
                raise ValueError(f"{f.name} must be strictly positive")
        if self.max_gain_dbi > MAX_GAIN_DBI:
            raise ValueError(f"max_gain_dbi must be <= {MAX_GAIN_DBI:g}")


@dataclass(frozen=True)
class ArrayGeometry:
    """Uniform linear array: element count and spacing in wavelengths."""

    num_antennas: int
    spacing_wavelengths: float = 0.5

    def __post_init__(self):
        if self.num_antennas < 1:
            raise ValueError("num_antennas must be >= 1")
        if not 0 < self.spacing_wavelengths <= MAX_SPACING_WAVELENGTHS:
            raise ValueError(f"spacing_wavelengths must lie in (0, "
                             f"{MAX_SPACING_WAVELENGTHS:g}]")


@dataclass(frozen=True)
class RotationBounds:
    """Per-element rotation range.  Derive via :func:`rotation_bounds`."""

    theta_min_deg: float
    theta_max_deg: float

    def __post_init__(self):
        if not self.theta_min_deg < self.theta_max_deg:
            raise ValueError("theta_min_deg must be < theta_max_deg")

    @property
    def span_deg(self) -> float:
        return self.theta_max_deg - self.theta_min_deg

    def contains(self, rotations_deg, atol: float = 1e-9) -> bool:
        r = np.asarray(rotations_deg, dtype=float)
        return bool(np.all(r >= self.theta_min_deg - atol)
                    and np.all(r <= self.theta_max_deg + atol))

    def clip(self, rotations_deg) -> np.ndarray:
        return np.asarray(rotations_deg, dtype=float).clip(
            self.theta_min_deg, self.theta_max_deg)


@dataclass
class BeamformerState:
    """Complex antenna weights paired with per-element rotation angles."""

    weights: np.ndarray
    rotations_deg: np.ndarray

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=complex)
        self.rotations_deg = np.asarray(self.rotations_deg, dtype=float)
        if self.weights.ndim != 1 or self.rotations_deg.ndim != 1:
            raise ValueError("weights and rotations_deg must be 1-D")
        if self.weights.shape != self.rotations_deg.shape:
            raise ValueError("weights and rotations_deg lengths differ")

    def validate(self, bounds: RotationBounds = None, atol: float = 1e-8):
        """Check the norm ball and, given ``bounds``, the rotation range."""
        if np.linalg.norm(self.weights) > 1.0 + atol:
            raise ValueError("weight norm exceeds 1")
        if bounds is not None and not bounds.contains(self.rotations_deg, atol):
            raise ValueError("rotation outside the allowed range")


@dataclass(frozen=True)
class Scenario:
    """Desired/interference direction sets and the interference gain cap."""

    desired_angles_deg: tuple = ()
    interference_angles_deg: tuple = ()
    eta_max_db: float = -10.0

    def __post_init__(self):
        object.__setattr__(self, "desired_angles_deg",
                           tuple(float(a) for a in self.desired_angles_deg))
        object.__setattr__(self, "interference_angles_deg",
                           tuple(float(a) for a in self.interference_angles_deg))
        if len(self.desired_angles_deg) < 1:
            raise ValueError("at least one desired angle is required")
        for a in self.desired_angles_deg + self.interference_angles_deg:
            if not (0.0 <= a <= 180.0):
                raise ValueError(f"angle {a} outside [0, 180] degrees")
        if set(self.desired_angles_deg) & set(self.interference_angles_deg):
            raise ValueError("desired and interference angle sets overlap")
        if not -MAX_ETA_DB <= self.eta_max_db <= MAX_ETA_DB:
            raise ValueError(f"eta_max_db must lie in [-{MAX_ETA_DB:g}, "
                             f"{MAX_ETA_DB:g}] dB")

    @property
    def eta_max_linear(self) -> float:
        return 10.0 ** (self.eta_max_db / 10.0)


def element_gain_dbi(pattern: RadiationPattern, steer_deg, out=None):
    """Directive element gain in dBi at the given (relative) steering angle.

    Defined for any real angle; no wrapping is applied.  Accepts scalars or
    arrays and returns the same shape.  ``out``, a float array of that
    shape, receives the gain in place of a new array; it may be
    ``steer_deg`` itself.
    """
    gain = np.asarray(np.subtract(steer_deg, 90.0, out=out, dtype=float))
    gain /= pattern.beamwidth_3db_deg
    np.square(gain, out=gain)
    gain *= 12.0
    np.minimum(gain, min(pattern.sidelobe_limit_db, pattern.front_to_back_db),
               out=gain)
    np.subtract(pattern.max_gain_dbi, gain, out=gain)
    return gain if gain.ndim else float(gain)


_DB_TO_LOG_AMPLITUDE = math.log(10.0) / 20.0


def element_amplitude(pattern: RadiationPattern, steer_deg, out=None):
    """Element amplitude, the square root of the linear element gain;
    ``out`` as in :func:`element_gain_dbi`.

    The amplitude of a gain G dBi is ``sqrt(10**(G/10)) = exp(G ln10 / 20)``,
    computed as one in-place ``exp`` of ``x = G * (ln10 / 20)``.  Every
    array gain reads its amplitudes from here, so :func:`array_gain` and
    :func:`grid_gain` see the same bits.  Against the exact amplitude of
    the float64 G the result is within ``1 + 2 |x|`` ulp while it is a
    normal float (G above about -6150 dBi).  The stored ln10 / 20 is 0.63
    ulp off and the product rounds once, so x is off by at most
    ``1.63 |x| eps / 2``, which exp turns into the same relative error of
    the result; numpy's exp adds under 1 ulp.
    """
    amp = np.asarray(element_gain_dbi(pattern, steer_deg, out))
    amp *= _DB_TO_LOG_AMPLITUDE
    np.exp(amp, out=amp)
    return amp if amp.ndim else float(amp)


def rotation_bounds(pattern: RadiationPattern) -> RotationBounds:
    """Allowed rotation range, symmetric about broadside (theta = 0).

    The half-width is the off-boresight angle at which the quadratic rolloff
    reaches the side-lobe limit, the span over which the pattern still varies.
    Boresight can therefore lie anywhere in ``90 +/- half`` degrees.
    """
    half = pattern.beamwidth_3db_deg * math.sqrt(
        pattern.sidelobe_limit_db / 12.0)
    return RotationBounds(-half, half)


def steering_vector(geometry: ArrayGeometry, psi_deg) -> np.ndarray:
    """ULA steering vectors, shape ``psi.shape + (N,)``; element 0 is the
    phase reference."""
    n = np.arange(geometry.num_antennas)
    cos = np.cos(np.radians(np.asarray(psi_deg, dtype=float)))[..., None]
    phase = 1j * 2.0 * np.pi * geometry.spacing_wavelengths * n * cos
    return np.exp(phase, out=phase)


def composite_response(pattern, geometry: ArrayGeometry,
                       rotations_deg, psi_deg) -> np.ndarray:
    """Effective array responses, shape ``psi.shape + rotations.shape``.

    Entry ``[..., n]`` is the :func:`element_amplitude` at the relative
    angle ``psi - rotations_deg[..., n]`` times element n's steering phase,
    for one direction or an array of them and for one rotation vector or a
    stack ``[..., N]`` of them.  ``pattern=None`` selects an isotropic
    element (unit amplitude regardless of rotation).  Directions lead, so
    each direction's block is one contiguous matrix for the matmul in
    :func:`array_gain`.
    """
    rotations = np.asarray(rotations_deg, dtype=float)
    if rotations.shape[-1:] != (geometry.num_antennas,):
        raise ValueError("rotations length does not match num_antennas")
    psi = np.asarray(psi_deg, dtype=float)
    # amplitudes before the larger complex block keep peak memory down
    if pattern is None:    # a real array: a stride-0 view leaves matmul's BLAS path
        amp = np.ones(psi.shape + rotations.shape)
    else:
        amp = psi.reshape(psi.shape + (1,) * rotations.ndim) - rotations
        element_amplitude(pattern, amp, out=amp)
    return amp * steering_vector(
        geometry, psi.reshape(psi.shape + (1,) * (rotations.ndim - 1)))


def array_gain(weights, pattern, geometry: ArrayGeometry,
               rotations_deg, psi_deg):
    """Array power gain |w^H v|^2, shape ``psi.shape + rotations.shape[:-1]``;
    a float for one direction and one rotation vector."""
    w = np.asarray(weights, dtype=complex)
    if w.shape[0] != geometry.num_antennas:
        raise ValueError("weights length does not match num_antennas")
    v = composite_response(pattern, geometry, rotations_deg, psi_deg)
    gain = np.abs(v @ np.conj(w)) ** 2
    return float(gain) if gain.ndim == 0 else gain


def grid_gain(weights, pattern, geometry: ArrayGeometry,
              rotations_deg, psi_deg) -> np.ndarray:
    """Array power gain of one rotation vector over a 1-D grid of directions.

    The gain of :func:`array_gain`, evaluated as the polynomial
    ``sum_n conj(w_n) A_n(psi) z**n`` in ``z = exp(j 2 pi d cos psi)`` by
    Horner's rule: one complex exponential per direction and no
    (directions, N) complex block.  The amplitudes ``A_n`` are computed once
    per distinct rotation by :func:`element_amplitude`, one contiguous row
    per rotation.  With ``pattern=None`` or one distinct rotation the
    coefficients are the constants ``conj(w_n)``, and in the second case
    the square of the one element amplitude multiplies the result.  Every
    operation is elementwise along the grid, so splitting the grid changes
    no bit.

    Against :func:`array_gain` the result differs by at most
    ``c N (1 + 2 pi d) eps S**2`` to first order in the machine epsilon
    ``eps``, with ``S = sum_n |w_n| A_n(psi)`` and ``c = 10``.  The
    amplitudes are the same bits; Horner's rule and the two sums add
    O(N eps S), and the phase of ``z**n``, formed by n products, and of
    array_gain's ``exp(j 2 pi d n cos psi)`` each carry O(n eps 2 pi d).
    The largest measured |difference| is 0.44 of the bound, at N = 1.
    """
    w = np.asarray(weights, dtype=complex)
    rotations = np.asarray(rotations_deg, dtype=float)
    n = geometry.num_antennas
    if w.shape != (n,) or rotations.shape != (n,):
        raise ValueError("weights and rotations must hold num_antennas each")
    psi = np.asarray(psi_deg, dtype=float)
    z = np.radians(psi)
    np.cos(z, out=z)
    z *= 2.0 * np.pi * geometry.spacing_wavelengths
    z = 1j * z                # rebinding frees the float phase
    np.exp(z, out=z)
    coef = np.conj(w)
    amp = scale = None
    if pattern is not None:
        distinct, index = np.unique(rotations, return_inverse=True)
        amp = psi - distinct[:, None]
        element_amplitude(pattern, amp, out=amp)
        if distinct.size == 1:      # one element gain, A**2, scales every term
            scale, amp = np.square(amp[0], out=amp[0]), None
    if amp is None:
        p = np.full(psi.shape, coef[-1])
        for c in coef[-2::-1]:
            p *= z
            p += c
    else:
        p = amp[index[-1]] * coef[-1]
        term = np.empty_like(p)
        for k in range(n - 2, -1, -1):
            p *= z
            p += np.multiply(amp[index[k]], coef[k], out=term)
    gain = np.square(p.real)
    gain += np.square(p.imag, out=p.imag)
    if scale is not None:
        gain *= scale
    return gain


def full_array_gain(pattern: RadiationPattern, geometry: ArrayGeometry) -> float:
    """Upper bound on the array gain: N times the peak linear element gain."""
    return geometry.num_antennas * 10.0 ** (pattern.max_gain_dbi / 10.0)
