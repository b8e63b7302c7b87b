(* The 64-bit state lives in 8 bytes rather than a mutable [int64]
   field, which would box a fresh [int64] on every draw. *)
type t = Bytes.t

let golden_gamma = 0x9E3779B97F4A7C15L

let create seed =
  let t = Bytes.create 8 in
  Bytes.set_int64_le t 0 seed;
  t

let copy = Bytes.copy

(* SplitMix64 output function: advance by the golden gamma, then apply
   the variant-13 finalizer of MurmurHash3. *)
let[@inline] next_int64 t =
  let z = Int64.add (Bytes.get_int64_le t 0) golden_gamma in
  Bytes.set_int64_le t 0 z;
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 30)) 0xBF58476D1CE4E5B9L in
  let z = Int64.mul (Int64.logxor z (Int64.shift_right_logical z 27)) 0x94D049BB133111EBL in
  Int64.logxor z (Int64.shift_right_logical z 31)

let split t =
  let seed = next_int64 t in
  (* Mix once more so that split streams do not share prefixes with the
     parent stream. *)
  create (Int64.logxor seed 0xD1B54A32D192ED03L)

let[@inline] float t =
  (* 53 high-quality bits mapped to [0, 1). *)
  let bits = Int64.shift_right_logical (next_int64 t) 11 in
  Int64.to_float bits *. (1.0 /. 9007199254740992.0)

let uniform t ~lo ~hi =
  assert (lo <= hi);
  lo +. ((hi -. lo) *. float t)

(* The loop keeps every draw unboxed, even where [uniform] cannot be
   inlined into its caller. *)
let fill_uniform t ~lo ~hi a n =
  assert (lo <= hi && n <= Array.length a);
  for i = 0 to n - 1 do
    a.(i) <- lo +. ((hi -. lo) *. float t)
  done

let gaussian t ~mu ~sigma =
  assert (sigma >= 0.0);
  (* Box-Muller; guard against log 0 by nudging u1 away from zero. *)
  let u1 = Float.max (float t) 1e-300 in
  let u2 = float t in
  let r = sqrt (-2.0 *. log u1) in
  mu +. (sigma *. r *. cos (2.0 *. Float.pi *. u2))

let lognormal_noise t ~sigma = exp (gaussian t ~mu:0.0 ~sigma)

let int t ~bound =
  assert (bound > 0);
  (* Rejection-free for our simulation purposes: modulo bias is
     negligible for bounds far below 2^64. *)
  let raw = Int64.shift_right_logical (next_int64 t) 1 in
  Int64.to_int (Int64.rem raw (Int64.of_int bound))

let bool t = Int64.logand (next_int64 t) 1L = 1L
