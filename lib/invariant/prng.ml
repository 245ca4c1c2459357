(* Deterministic 48-bit LCG, the one stream behind every random draw in
   the tree (the fault plan's seeded ticks, Sfm.validate_submodular's
   samples, the chaos schedules): each draw is a pure function of an
   explicit seed, so failures replay exactly. Draws come from the high
   bits — the low bits of an LCG have tiny periods (the lowest bit
   alternates), which would correlate consecutive draws. *)

type t = { mutable state : int }

let mix seed = (seed land max_int) lxor 0x2545F4914F6CDD1D

let make seed = { state = mix seed }

let step t =
  t.state <- ((t.state * 25214903917) + 11) land 0xFFFFFFFFFFFF;
  t.state lsr 16

let int t bound =
  if bound <= 0 then invalid_arg (Printf.sprintf "Prng.int: bound %d must be positive" bound)
  else step t mod bound

let float t bound = float_of_int (step t) /. 4294967296.0 *. bound
