(** Sets of integers (fact ids, vertex ids), shared across the libraries. *)
include Set.Make (Int)

let pp ppf s =
  Format.fprintf ppf "{%s}" (String.concat "," (List.map string_of_int (elements s)))

(* A set hashes to the xor of a fixed mix of its elements, so equal sets
   hash equally whatever the tree's shape, and adding or removing one
   element updates the hash in O(1). The offset keeps element 0 from
   mixing to 0 (which would hash {0} like the empty set). The table picks
   a bucket from the low bits, so the mix multiplies by large odd
   constants and folds the high bits back down; without the folds an
   element's low bits would depend only on its own low bits. *)
let mix x =
  let h = x + 0x1E3779B97F4A7C15 in
  let h = (h lxor (h lsr 31)) * 0x2545F4914F6CDD1D in
  let h = (h lxor (h lsr 29)) * 0x1CE4E5B9BF58476D in
  h lxor (h lsr 32)

let hash s = fold (fun x h -> h lxor mix x) s 0

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
