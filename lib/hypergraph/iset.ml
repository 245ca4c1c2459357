(** Sets of integers (fact ids, vertex ids), shared across the libraries. *)
include Set.Make (Int)

let pp ppf s =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int (elements s)))

(* [fold] visits the elements in increasing order whatever the tree's
   shape, so equal sets hash equally. The table picks a bucket from the low
   bits, so each step multiplies by a large odd constant and folds the high
   bits back down; a small multiplier leaves the low bits poorly mixed (with
   65599, the low six are an alternating sum of the elements). *)
module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal

  let hash s =
    fold
      (fun x h ->
        let h = (h lxor x) * 0x2545F4914F6CDD1D in
        h lxor (h lsr 29))
      s 0
end)
