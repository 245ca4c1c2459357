module Json = Cert.Json

(* Process-wide registry of named counters, gauges and log-scale
   histograms. Single-threaded by construction (the whole repository is);
   the hot operations — [incr], [add], [observe] — are a field update and
   at most a [log] call, cheap enough for the innermost solver loops. *)

type counter = { cname : string; mutable count : int }
type gauge = { mutable value : float }

(* Log-scale buckets: base 2^(1/4), i.e. four buckets per doubling, which
   bounds the relative error of a reported percentile by ~19% — plenty for
   latency work. The index range covers 1e-9s .. ~1e9s. *)
let base = Float.exp (Float.log 2.0 /. 4.0)
let log_base = Float.log base
let bucket_offset = 120
let nbuckets = (2 * bucket_offset) + 1

type histogram = {
  buckets : int array;
  mutable n : int;
  mutable sum : float;
  mutable lo : float;
  mutable hi : float;
}

type metric = C of counter | G of gauge | H of histogram

let registry : (string, metric) Hashtbl.t = Hashtbl.create 64

let register name make cast kind =
  match Hashtbl.find_opt registry name with
  | Some m -> begin
      match cast m with
      | Some v -> v
      | None ->
          invalid_arg
            (Printf.sprintf "Metrics: %S is already registered as a different kind (not a %s)"
               name kind)
    end
  | None ->
      let v = make () in
      v

let counter name =
  register name
    (fun () ->
      let c = { cname = name; count = 0 } in
      Hashtbl.replace registry name (C c);
      c)
    (function C c -> Some c | G _ | H _ -> None)
    "counter"

let gauge name =
  register name
    (fun () ->
      let g = { value = 0.0 } in
      Hashtbl.replace registry name (G g);
      g)
    (function G g -> Some g | C _ | H _ -> None)
    "gauge"

let histogram name =
  register name
    (fun () ->
      let h =
        {
          buckets = Array.make nbuckets 0;
          n = 0;
          sum = 0.0;
          lo = Float.infinity;
          hi = Float.neg_infinity;
        }
      in
      Hashtbl.replace registry name (H h);
      h)
    (function H h -> Some h | C _ | G _ -> None)
    "histogram"

(* Counter deltas feed the flight-recorder ring when it is armed; the
   [Flight.enabled] guard is one ref read, cheap enough to leave in the
   hot path. Names are not recorded per-object (the registry maps the
   other way), so the delta notes the new absolute count only. *)
let note_count c =
  if Flight.enabled () then
    Flight.note
      (Json.Obj
         [ ("k", Json.Str "ctr"); ("name", Json.Str c.cname); ("count", Json.Int c.count) ])

let incr c =
  c.count <- c.count + 1;
  note_count c

let add c n =
  c.count <- c.count + n;
  note_count c

let count c = c.count
let set g v = g.value <- v
let get g = g.value

let bucket_of v =
  if not (Float.is_finite v) || v <= 0.0 then 0
  else
    let i = bucket_offset + int_of_float (Float.floor (Float.log v /. log_base)) in
    if i < 0 then 0 else if i >= nbuckets then nbuckets - 1 else i

let observe h v =
  let v = if Float.is_finite v then v else 0.0 in
  h.buckets.(bucket_of v) <- h.buckets.(bucket_of v) + 1;
  h.n <- h.n + 1;
  h.sum <- h.sum +. v;
  if v < h.lo then h.lo <- v;
  if v > h.hi then h.hi <- v

let observations h = h.n

(* Geometric midpoint of the bucket holding the q-th observation, clamped
   to the observed range so a single-sample histogram reports the sample
   itself rather than a bucket bound. *)
let percentile h q =
  if h.n = 0 then Float.nan
  else begin
    let q = Float.min 1.0 (Float.max 0.0 q) in
    let rank = max 1 (int_of_float (Float.ceil (q *. float_of_int h.n))) in
    let idx = ref 0 in
    let seen = ref 0 in
    (try
       for i = 0 to nbuckets - 1 do
         seen := !seen + h.buckets.(i);
         if !seen >= rank then begin
           idx := i;
           raise Exit
         end
       done
     with Exit -> ());
    let mid = base ** (float_of_int (!idx - bucket_offset) +. 0.5) in
    Float.min h.hi (Float.max h.lo mid)
  end

type stat =
  | Counter of int
  | Gauge of float
  | Histogram of { n : int; sum : float; lo : float; hi : float; p50 : float; p99 : float }

let stat_of = function
  | C c -> Counter c.count
  | G g -> Gauge g.value
  | H h ->
      Histogram
        {
          n = h.n;
          sum = h.sum;
          lo = (if h.n = 0 then 0.0 else h.lo);
          hi = (if h.n = 0 then 0.0 else h.hi);
          p50 = percentile h 0.5;
          p99 = percentile h 0.99;
        }

let snapshot () =
  Hashtbl.fold (fun name m acc -> (name, stat_of m) :: acc) registry []
  |> List.sort (fun (a, _) (b, _) -> compare a b)

(* Zero values but keep the metric objects: static references held by
   instrumented modules stay valid across a reset. *)
let reset () =
  Hashtbl.iter
    (fun _ m ->
      match m with
      | C c -> c.count <- 0
      | G g -> g.value <- 0.0
      | H h ->
          Array.fill h.buckets 0 nbuckets 0;
          h.n <- 0;
          h.sum <- 0.0;
          h.lo <- Float.infinity;
          h.hi <- Float.neg_infinity)
    registry

let stat_to_json = function
  | Counter n -> Json.Int n
  | Gauge v -> Json.Float v
  | Histogram { n; sum; lo; hi; p50; p99 } ->
      Json.Obj
        [
          ("count", Json.Int n);
          ("sum", Json.Float sum);
          ("min", Json.Float lo);
          ("max", Json.Float hi);
          ("p50", Json.Float p50);
          ("p99", Json.Float p99);
        ]

(* Both external surfaces — the serve [{"stats":true}] control line and
   the Prometheus text endpoint — are pure renderings of the same
   [snapshot] value, so they cannot drift: a metric present in one is
   present in the other. Names are sorted and every float goes through
   one locale-independent [%.9g] formatter (OCaml's [Printf] never
   consults the locale), so identical counter states render to
   byte-identical output across runs and machines. *)
let to_json () = Json.Obj (List.map (fun (name, s) -> (name, stat_to_json s)) (snapshot ()))

(* ---- Prometheus text exposition (version 0.0.4) ---- *)

(* Metric names: dots become underscores under an [rpq_] namespace
   prefix; histograms render as summaries (quantiles + _sum + _count)
   with min/max as companion gauges. *)
let prom_name name =
  "rpq_"
  ^ String.map
      (fun c ->
        match c with 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> c | _ -> '_')
      name

let prom_float v =
  if Float.is_nan v then "NaN"
  else if v = Float.infinity then "+Inf"
  else if v = Float.neg_infinity then "-Inf"
  else Printf.sprintf "%.9g" v

let prometheus_of_snapshot ?(only_counters = false) snap =
  let b = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string b s; Buffer.add_char b '\n') fmt in
  List.iter
    (fun (name, st) ->
      let pn = prom_name name in
      match st with
      | Counter n ->
          line "# TYPE %s counter" pn;
          line "%s %d" pn n
      | Gauge v ->
          if not only_counters then begin
            line "# TYPE %s gauge" pn;
            line "%s %s" pn (prom_float v)
          end
      | Histogram { n; sum; lo; hi; p50; p99 } ->
          if not only_counters then begin
            line "# TYPE %s summary" pn;
            line "%s{quantile=\"0.5\"} %s" pn (prom_float p50);
            line "%s{quantile=\"0.99\"} %s" pn (prom_float p99);
            line "%s_sum %s" pn (prom_float sum);
            line "%s_count %d" pn n;
            (* _max before _min keeps the whole exposition in strict
               lexicographic family order. *)
            line "# TYPE %s_max gauge" pn;
            line "%s_max %s" pn (prom_float hi);
            line "# TYPE %s_min gauge" pn;
            line "%s_min %s" pn (prom_float lo)
          end)
    snap;
  Buffer.contents b

let prometheus_string ?only_counters () = prometheus_of_snapshot ?only_counters (snapshot ())

(* The flight-recorder dump's [metrics] field is the same rendering as
   every other surface. Registered here to keep the dependency arrow
   metrics -> flight. *)
let () = Flight.set_metrics_provider to_json
