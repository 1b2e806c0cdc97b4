(* serve: a seeded open-loop Poisson trace over all four apps replayed
   through [Serve.run] with the default config and no chaos.  Arrivals
   follow the schedule in virtual time whatever the fleet does; on the
   host, a unit is one batch replay of one trace. *)

module Serve = Orianna_serve.Serve
module Request = Orianna_serve.Request
module Cache = Orianna_serve.Cache
module App = Orianna_apps.App
module Rng = Orianna_util.Rng

let name = "serve"
let first_units = 2

let metrics =
  [
    "serve_req_per_s"; "serve_p99_virtual_ms"; "serve_deadline_miss_rate"; "serve.run_ms";
    "serve.des_self_ms"; "serve.us_per_request"; "serve.cache_hit_ratio"; "serve.miss_ms";
    "serve.heap_words_per_request"; "serve.mean_batch_size"; "serve.queue_depth_max";
    "serve.fleet_util_mean";
  ]
let requests = 6000
let rate_hz = 20000.0
let deadline_s = (1e-3, 4e-3)

type state = { seed : int; first : Request.t list array }
type input = Request.t list
type result = { report : Serve.report; alloc_words : float }

type summary = {
  requests : int;
  fingerprint : string;
  p99_ms : float;
  misses : int;
  completed : int;
  batches : int;
  queue_depth_max : int;
  hit_ratio : float;
  fleet_util : float;
  words_per_request : float;
}

let trace ~seed k n =
  Request.generate
    ~rng:(Rng.of_int ((seed * 1_000_003) + k))
    ~shape:(Request.Poisson { rate_hz })
    ~apps:(List.map (fun (a : App.t) -> a.App.name) App.all)
    ~deadline_s ~n

let setup ~seed =
  (* warm-up replay: first-use costs leave the timed region *)
  ignore (Serve.run ~trace:(trace ~seed (-1) 200) ());
  { seed; first = Array.init first_units (fun k -> trace ~seed k requests) }

let input st k = if k < first_units then st.first.(k) else trace ~seed:st.seed k requests

let run _ trace =
  incr Spans.item;
  let before = Gc.allocated_bytes () in
  let report = Spans.span "serve.run" (fun () -> Serve.run ~trace ()) in
  { report; alloc_words = (Gc.allocated_bytes () -. before) /. float_of_int (Sys.word_size / 8) }

(* Conservation: every request ends in exactly one terminal state, and
   all of them complete (the trace never overloads the queue). *)
let check trace { report = r; _ } =
  let n = List.length trace in
  let seen = Array.make n 0 in
  let mark (q : Request.t) = if q.Request.id >= 0 && q.Request.id < n then seen.(q.Request.id) <- seen.(q.Request.id) + 1 in
  List.iter (fun (c : Serve.completion) -> mark c.Serve.request) r.Serve.completions;
  List.iter (fun (q, _) -> mark q) r.Serve.rejections;
  let lost = Array.fold_left (fun a c -> if c = 1 then a else a + 1) 0 seen in
  let conserved = r.Serve.total = n && r.Serve.completed + List.length r.Serve.rejections = n in
  let failed = if conserved then lost + List.length r.Serve.rejections else n in
  if failed > 0 then
    Printf.eprintf "serve: %d of %d requests not conserved or not completed\n" failed n;
  failed

let summarize trace { report = r; alloc_words } =
  let n = List.length trace in
  {
    requests = n;
    fingerprint = Orianna_obs.Json.to_string (Serve.report_json r);
    p99_ms = r.Serve.p99_ms;
    misses = r.Serve.deadline_misses;
    completed = r.Serve.completed;
    batches = List.length r.Serve.batches;
    queue_depth_max = r.Serve.queue_depth_max;
    hit_ratio = Cache.hit_rate r.Serve.cache;
    fleet_util =
      List.fold_left (fun a (i : Serve.instance_report) -> a +. i.Serve.iutil) 0.0 r.Serve.fleet
      /. float_of_int (max 1 (List.length r.Serve.fleet));
    words_per_request = alloc_words /. float_of_int (max 1 n);
  }

let items s = s.requests
let layer_items _ = 1
let fingerprint s = s.fingerprint
let latency_ms _ = []

let sum f units = List.fold_left (fun a s -> a +. f s) 0.0 units
let mean f units = sum f units /. float_of_int (List.length units)

let modeled units =
  [
    ("serve_p99_virtual_ms", mean (fun s -> s.p99_ms) units);
    ( "serve_deadline_miss_rate",
      sum (fun s -> float_of_int s.misses) units /. sum (fun s -> float_of_int s.completed) units );
    ("serve.mean_batch_size", sum (fun s -> float_of_int s.completed) units /. sum (fun s -> float_of_int s.batches) units);
    ("serve.queue_depth_max", mean (fun s -> float_of_int s.queue_depth_max) units);
    ("serve.cache_hit_ratio", mean (fun s -> s.hit_ratio) units);
    ("serve.fleet_util_mean", mean (fun s -> s.fleet_util) units);
  ]

let host _ ~throughput = [ ("serve_req_per_s", throughput) ]

(* Host time inside [Serve.run] that the program's compile, DSE and
   schedule spans do not cover is the DES loop's own. *)
let layers units ~spans ~program =
  let runs = Spans.named "serve.run" spans in
  let replays = float_of_int (List.length units) in
  let miss = Spans.program_intervals [ "compile.application"; "dse.optimize" ] program in
  let spanned = Spans.program_intervals [ "compile.application"; "dse.optimize"; "sim.schedule" ] program in
  let run_s = Spans.total runs in
  (* every replay starts cold, so compile and DSE spans must be there *)
  let self intervals = if miss = [] then nan else Spans.self_time runs intervals in
  [
    ("serve.des_self_ms", self spanned *. 1e3 /. replays);
    ("serve.miss_ms", (run_s -. self miss) *. 1e3 /. replays);
    ("serve.us_per_request", run_s *. 1e6 /. sum (fun s -> float_of_int s.requests) units);
    ("serve.heap_words_per_request", mean (fun s -> s.words_per_request) units);
  ]
