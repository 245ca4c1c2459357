(* The stdlib has no monotonic clock and pulling in a clock library would
   defeat the point of a dependency-free observability layer, so [now] is
   the wall clock behind a max guard: a backwards NTP step can stall the
   reading but never make an elapsed-time difference negative. *)
let last = ref 0.0

let now () =
  let t = Unix.gettimeofday () in
  if t > !last then last := t;
  !last
