(** Deterministic pseudo-random number generation.

    All stochastic behaviour in the simulated hardware substrate (PCIe
    transfer-time noise, DRAM timing jitter, ...) is driven by this
    splittable generator so that every experiment in the paper
    reproduction is bit-for-bit repeatable from a seed.

    The implementation is SplitMix64 (Steele, Lea & Flood; also the
    seeding generator of Java's [SplittableRandom]).  It is small, has
    good statistical quality for simulation purposes, and supports cheap
    stream splitting, which we use to give independent noise streams to
    independent simulated devices. *)

type t
(** Mutable generator state: the 64-bit SplitMix64 state, kept unboxed
    in 8 bytes.  A draw allocates nothing to advance it; only its
    result, an [int64] or [float], may be boxed on return. *)

val create : int64 -> t
(** [create seed] makes a fresh generator.  Equal seeds yield equal
    streams. *)

val copy : t -> t
(** [copy t] is an independent generator that will produce the same
    future stream as [t]. *)

val split : t -> t
(** [split t] advances [t] and returns a new generator whose stream is
    statistically independent of the remainder of [t]'s stream. *)

val next_int64 : t -> int64
(** Next raw 64-bit output. *)

val float : t -> float
(** [float t] is uniform in [\[0, 1)]. *)

val uniform : t -> lo:float -> hi:float -> float
(** [uniform t ~lo ~hi] is uniform in [\[lo, hi)].  Requires
    [lo <= hi]. *)

val fill_uniform : t -> lo:float -> hi:float -> float array -> int -> unit
(** [fill_uniform t ~lo ~hi a n] sets [a.(0)] to [a.(n - 1)] to the
    next [n] draws of [uniform t ~lo ~hi], in order and bit for bit,
    and leaves [t] where those [n] calls would.  It allocates nothing.
    Requires [lo <= hi] and [n <= Array.length a]. *)

val gaussian : t -> mu:float -> sigma:float -> float
(** [gaussian t ~mu ~sigma] draws from a normal distribution using the
    Box-Muller transform, which takes two draws.  [sigma] must be
    non-negative. *)

val lognormal_noise : t -> sigma:float -> float
(** [lognormal_noise t ~sigma] is a multiplicative noise factor with
    median 1.0: [exp (gaussian ~mu:0 ~sigma)], so it takes two draws.
    Used to perturb simulated timings the way real measurements
    wobble. *)

val int : t -> bound:int -> int
(** [int t ~bound] is uniform in [\[0, bound)].  [bound] must be
    positive. *)

val bool : t -> bool
(** Fair coin. *)
