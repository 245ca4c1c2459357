(* Tests for the Dinic max-flow / min-cut solver. *)
open Flow

let check = Alcotest.(check bool)
let check_int = Alcotest.(check int)

let mk n edges =
  let net = Network.create () in
  for _ = 1 to n do
    ignore (Network.add_vertex net)
  done;
  let ids = List.map (fun (s, d, c) -> Network.add_edge net ~src:s ~dst:d c) edges in
  (net, ids)

let cut_value net ~source ~sink =
  (Network.min_cut net ~source ~sink).Network.value

let test_single_edge () =
  let net, _ = mk 2 [ (0, 1, Network.Finite 5) ] in
  check "value" true (cut_value net ~source:0 ~sink:1 = Network.Finite 5)

let test_disconnected () =
  let net, _ = mk 2 [] in
  check "zero" true (cut_value net ~source:0 ~sink:1 = Network.Finite 0)

let test_infinite () =
  let net, _ = mk 2 [ (0, 1, Network.Inf) ] in
  check "inf" true (cut_value net ~source:0 ~sink:1 = Network.Inf);
  check "no edges" true ((Network.min_cut net ~source:0 ~sink:1).Network.edges = [])

let test_diamond () =
  (* classic: 0 -> {1, 2} -> 3 *)
  let net, _ =
    mk 4
      [
        (0, 1, Network.Finite 3);
        (0, 2, Network.Finite 2);
        (1, 3, Network.Finite 2);
        (2, 3, Network.Finite 3);
        (1, 2, Network.Finite 1);
      ]
  in
  check "diamond" true (cut_value net ~source:0 ~sink:3 = Network.Finite 5)

let test_inf_middle () =
  (* finite cut forced around an infinite middle edge *)
  let net, ids =
    mk 4 [ (0, 1, Network.Finite 7); (1, 2, Network.Inf); (2, 3, Network.Finite 4) ]
  in
  let cut = Network.min_cut net ~source:0 ~sink:3 in
  check "value 4" true (cut.Network.value = Network.Finite 4);
  check_int "one cut edge" 1 (List.length cut.Network.edges);
  check "cut edge is last" true (cut.Network.edges = [ List.nth ids 2 ])

let test_parallel_edges () =
  let net, _ = mk 2 [ (0, 1, Network.Finite 2); (0, 1, Network.Finite 3) ] in
  check "parallel" true (cut_value net ~source:0 ~sink:1 = Network.Finite 5)

let test_cut_is_valid () =
  let net, ids =
    mk 6
      [
        (0, 1, Network.Finite 10);
        (0, 2, Network.Finite 10);
        (1, 3, Network.Finite 4);
        (2, 3, Network.Finite 9);
        (1, 4, Network.Finite 8);
        (4, 3, Network.Finite 3);
        (4, 5, Network.Finite 2);
        (5, 3, Network.Finite 10);
      ]
  in
  let cut = Network.min_cut net ~source:0 ~sink:3 in
  (* removing the cut edges must disconnect source from sink *)
  let removed = cut.Network.edges in
  let adj = Array.make 6 [] in
  List.iteri
    (fun i id ->
      ignore i;
      if not (List.mem id removed) then begin
        let s, d, _ = Network.edge_info net id in
        adj.(s) <- d :: adj.(s)
      end)
    ids;
  let seen = Array.make 6 false in
  let rec go v =
    if not seen.(v) then begin
      seen.(v) <- true;
      List.iter go adj.(v)
    end
  in
  go 0;
  check "disconnects" true (not seen.(3))

(* Reference: brute-force min cut over all subsets of finite edges. *)
let brute_min_cut n edges ~source ~sink =
  let m = List.length edges in
  let arr = Array.of_list edges in
  let best = ref Network.Inf in
  for mask = 0 to (1 lsl m) - 1 do
    let cost = ref 0 in
    let adj = Array.make n [] in
    Array.iteri
      (fun i (s, d, c) ->
        if mask land (1 lsl i) <> 0 then
          match c with
          | Network.Finite x -> cost := !cost + x
          | Network.Inf -> cost := max_int / 2
        else adj.(s) <- d :: adj.(s))
      arr;
    let seen = Array.make n false in
    let rec go v =
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter go adj.(v)
      end
    in
    go source;
    if (not seen.(sink)) && !cost < max_int / 4 then
      if Network.cap_compare (Network.Finite !cost) !best < 0 then best := Network.Finite !cost
  done;
  !best

let qcheck = QCheck_alcotest.to_alcotest

let gen_net =
  QCheck.Gen.(
    let* n = int_range 2 6 in
    let* m = int_range 0 10 in
    let* edges =
      list_repeat m
        (let* s = int_bound (n - 1) in
         let* d = int_bound (n - 1) in
         let* c = frequency [ (5, map (fun x -> Network.Finite (x + 1)) (int_bound 5)); (1, return Network.Inf) ] in
         return (s, d, c))
    in
    return (n, List.filter (fun (s, d, _) -> s <> d) edges))

let arb_net =
  QCheck.make
    ~print:(fun (n, es) ->
      Printf.sprintf "n=%d %s" n
        (String.concat ";"
           (List.map
              (fun (s, d, c) ->
                Printf.sprintf "%d->%d(%s)" s d
                  (match c with Network.Finite x -> string_of_int x | Network.Inf -> "inf"))
              es)))
    gen_net

let prop_dinic_vs_brute =
  QCheck.Test.make ~name:"Dinic min cut = brute-force min cut" ~count:300 arb_net
    (fun (n, edges) ->
      let net, _ = mk n edges in
      Network.cap_compare (cut_value net ~source:0 ~sink:(n - 1)) (brute_min_cut n edges ~source:0 ~sink:(n - 1)) = 0)

let prop_cut_edges_cost =
  QCheck.Test.make ~name:"reported cut edges have cost = cut value" ~count:300 arb_net
    (fun (n, edges) ->
      let net, ids = mk n edges in
      let cut = Network.min_cut net ~source:0 ~sink:(n - 1) in
      match cut.Network.value with
      | Network.Inf -> true
      | Network.Finite v ->
          let cost =
            List.fold_left
              (fun acc id ->
                ignore ids;
                let _, _, c = Network.edge_info net id in
                match c with Network.Finite x -> acc + x | Network.Inf -> max_int / 2)
              0 cut.Network.edges
          in
          cost = v)

let prop_push_relabel_vs_dinic =
  QCheck.Test.make ~name:"push-relabel = Dinic" ~count:400 arb_net (fun (n, edges) ->
      let net, _ = mk n edges in
      let d = Network.min_cut net ~source:0 ~sink:(n - 1) in
      let net2, _ = mk n edges in
      let p = Push_relabel.min_cut net2 ~source:0 ~sink:(n - 1) in
      Network.cap_compare d.Network.value p.Network.value = 0)

let prop_push_relabel_cut_valid =
  QCheck.Test.make ~name:"push-relabel cut disconnects source from sink" ~count:200 arb_net
    (fun (n, edges) ->
      let net, ids = mk n edges in
      let cut = Push_relabel.min_cut net ~source:0 ~sink:(n - 1) in
      match cut.Network.value with
      | Network.Inf -> true
      | Network.Finite _ ->
          let adj = Array.make n [] in
          List.iter
            (fun id ->
              if not (List.mem id cut.Network.edges) then begin
                let s, d, _ = Network.edge_info net id in
                adj.(s) <- d :: adj.(s)
              end)
            ids;
          let seen = Array.make n false in
          let rec go v =
            if not seen.(v) then begin
              seen.(v) <- true;
              List.iter go adj.(v)
            end
          in
          go 0;
          not seen.(n - 1))

(* The edge store is a growable directory of 16-edge chunks: networks of
   0, 1, 15, 16, 17, 64, 65 and 1000 edges cross its growth boundaries. Each keeps insertion order,
   Dinic and push-relabel find the same minimal cut (the source side of
   any maximum flow's residual graph is the same vertex set), both
   certificates validate, and ids outside [0, edge_count) raise even
   when the array has spare room behind the last edge. *)
let test_edge_store_sizes () =
  List.iter
    (fun m ->
      let rng = Invariant.Prng.make (m + 1) in
      let n = 2 + (m / 8) in
      let edges =
        List.init m (fun _ ->
            let s = Invariant.Prng.int rng n and d = Invariant.Prng.int rng n in
            let c =
              if Invariant.Prng.int rng 6 = 0 then Network.Inf
              else Network.Finite (1 + Invariant.Prng.int rng 9)
            in
            (s, d, c))
      in
      let net, ids = mk n edges in
      let label what = Printf.sprintf "%d edges: %s" m what in
      check_int (label "edge_count") m (Network.edge_count net);
      check (label "ids are dense") true (ids = List.init m Fun.id);
      check (label "edge_info returns what was added") true
        (List.for_all2 (fun id e -> Network.edge_info net id = e) ids edges);
      List.iter
        (fun id ->
          match Network.edge_info net id with
          | _ -> Alcotest.failf "%s" (label (Printf.sprintf "edge_info %d did not raise" id))
          | exception Invalid_argument _ -> ())
        [ -1; m ];
      let source = 0 and sink = n - 1 in
      let dc, dflow = Network.min_cut_certified net ~source ~sink in
      let pc, pflow = Push_relabel.min_cut_certified net ~source ~sink in
      check (label "same cut value") true (Network.cap_compare dc.Network.value pc.Network.value = 0);
      check (label "same cut edges") true (dc.Network.edges = pc.Network.edges);
      List.iter
        (fun (alg, cut, flow) ->
          match Network.validate_certificate net ~source ~sink cut ~flow with
          | Ok () -> ()
          | Error vs ->
              Alcotest.failf "%s" (label (Printf.sprintf "%s certificate: %d violations" alg (List.length vs))))
        [ ("Dinic", dc, dflow); ("push-relabel", pc, pflow) ];
      check (label "network validates") true (Network.validate net = Ok ()))
    [ 0; 1; 15; 16; 17; 64; 65; 1000 ]

(* A path of 7·10⁵ vertices: 20·n²·(m+1) wraps past 63 bits here, and the
   step bound must saturate rather than trip before the first step. *)
let test_push_relabel_long_path () =
  let n = 700_000 in
  let net = Network.create () in
  for _ = 1 to n do
    ignore (Network.add_vertex net)
  done;
  for v = 0 to n - 2 do
    ignore (Network.add_edge net ~src:v ~dst:(v + 1) (Network.Finite (1 + (v mod 3))))
  done;
  let cut = Push_relabel.min_cut net ~source:0 ~sink:(n - 1) in
  check "the lightest edge" true (cut.Network.value = Network.Finite 1)

let () =
  Alcotest.run "flow"
    [
      ( "mincut",
        [
          Alcotest.test_case "single edge" `Quick test_single_edge;
          Alcotest.test_case "disconnected" `Quick test_disconnected;
          Alcotest.test_case "infinite" `Quick test_infinite;
          Alcotest.test_case "diamond" `Quick test_diamond;
          Alcotest.test_case "infinite middle" `Quick test_inf_middle;
          Alcotest.test_case "parallel edges" `Quick test_parallel_edges;
          Alcotest.test_case "cut disconnects" `Quick test_cut_is_valid;
          Alcotest.test_case "edge store across growth" `Quick test_edge_store_sizes;
          Alcotest.test_case "push-relabel on a 7e5-vertex path" `Quick
            test_push_relabel_long_path;
        ] );
      ( "properties",
        List.map qcheck
          [
            prop_dinic_vs_brute;
            prop_cut_edges_cost;
            prop_push_relabel_vs_dinic;
            prop_push_relabel_cut_valid;
          ] );
    ]
