(* The shared test vocabulary: every deterministic suite draws its seeds,
   pool sizes and exotic field instantiations from here, so "the same
   (seed-determined) input" means the same thing across test_differential,
   test_determinism and test_session — and a seed bump is one edit, not a
   hunt through the suites. *)

(* the one seed list every field block shares *)
let shared_seeds = [ 3; 17; 92 ]

(* pool sizes for the determinism sweeps: sequential, the smallest real
   pool, and enough domains to see work stealing *)
let domain_counts = [ 1; 2; 4 ]

(* GF(2⁸): characteristic 2, so the Chistov (§5) charpoly route; [seed]
   fixes the random irreducible polynomial, keeping the field — and every
   test over it — reproducible *)
module Gf2_8 = Kp_field.Gfext.Make (struct
  let p = 2
  let k = 8
  let seed = 11
end)

(* engines draw their randomness from states split off one seed-derived
   root, so a whole test case is a deterministic function of (field, seed) *)
let states seed k =
  let root = Kp_util.Rng.make seed in
  Array.init k (fun _ -> Kp_util.Rng.split root)

(* the reference twin of a hinted field: same elements and operations, but
   [Generic], so every kernel-dispatched call site rides the derived kernel
   — the oracle the C-stub backends are compared against, selected by type
   rather than by any global switch *)
module Generic_twin (F : Kp_field.Field_intf.FIELD) = struct
  include F

  let kernel_hint = Kp_field.Field_intf.Generic
end

let twin (type a) (module F : Kp_field.Field_intf.FIELD with type t = a) =
  (module Generic_twin (F) : Kp_field.Field_intf.FIELD with type t = a)

(* [f ()] and the heap words it allocated, minor and major heap alike —
   how the reused-buffer suites show an apply loop allocates nothing.
   Minor words come from [Gc.minor_words]: OCaml 5.1's [Gc.counters]
   leaves out most words allocated since the last minor collection *)
let allocated_words f =
  let minor0 = Gc.minor_words () and _, promoted0, major0 = Gc.counters () in
  let r = f () in
  let minor1 = Gc.minor_words () and _, promoted1, major1 = Gc.counters () in
  (r, minor1 -. minor0 +. (major1 -. major0) -. (promoted1 -. promoted0))
