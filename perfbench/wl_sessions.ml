(* sessions: one Manhattan stream fed tick by tick into two smoothers
   with their ticks interleaved — a full-history smoother and a
   windowed one — as a robot feeds its estimator.  A unit is one pass
   over a stream with fresh smoothers.

   Every stream follows the same Manhattan walk (the dataset's default
   walk, past its loop-closure cliff), so every pass has the same
   factor-graph structure; the workload seed draws the measurement
   noise and the initial estimates, like the apps' frame seeds do. *)

open Orianna_fg
module Datasets = Orianna_apps.Datasets
module Stream = Orianna_apps.Stream
module Pose2 = Orianna_lie.Pose2
module Rng = Orianna_util.Rng
module Macs = Orianna_linalg.Macs

let name = "sessions"
let first_units = 3

let metrics =
  [
    "tick_p50_ms"; "tick_p95_ms"; "window_tick_p50_ms"; "window_tick_p95_ms";
    "window.marginalized"; "smoother.tick_to_batch_macs_max"; "window.tick_to_batch_macs_max";
  ]
  @ List.concat_map
      (fun (layer, apply) ->
        [
          layer ^ ".update_ms"; apply ^ ".apply_tick_ms"; layer ^ ".tick_macs_p50";
          layer ^ ".tick_macs_p95"; layer ^ ".affected_fraction_p50"; layer ^ ".relin_passes";
        ])
      [ ("smoother", "stream"); ("window", "window") ]
let steps = 250
let window = 40
let walk = { Datasets.default_config with Datasets.steps }

(* Full-history estimates must match a batch solve of the same prefix.
   The smoother leaves deltas under its 0.05 relinearization threshold
   unapplied, so the match is not to round-off: the worst deviation
   seen on this stream is about 3e-3. *)
let batch_tolerance = 1e-2

type tick_stats = { macs : int; affected : float; relin : int }

type pass = {
  ticks : int;
  full_ms : float array;
  window_ms : float array;
  full_ticks : tick_stats array;
  window_ticks : tick_stats array;
  full : Smoother.t;
  windowed : Smoother.t;
}

type state = { seed : int; truth : Datasets.t; first : Stream.t array }
type input = Stream.t
type result = pass

let stream (truth : Datasets.t) ~seed k =
  let rng = Rng.of_int ((seed * 1_000_003) + k) in
  let noisy ~rot ~trans rel =
    Pose2.retract rel
      [| Rng.gaussian_sigma rng ~sigma:rot; Rng.gaussian_sigma rng ~sigma:trans; Rng.gaussian_sigma rng ~sigma:trans |]
  in
  let t = truth.Datasets.truth in
  let measure (i, j, _) =
    (i, j, noisy ~rot:walk.Datasets.odo_rot_sigma ~trans:walk.Datasets.odo_trans_sigma (Pose2.ominus t.(j) t.(i)))
  in
  let odometry = Array.map measure truth.Datasets.odometry in
  let loops = Array.map measure truth.Datasets.loops in
  let initial = Array.make (Array.length t) t.(0) in
  Array.iter
    (fun (i, j, z) ->
      initial.(j) <-
        Pose2.oplus initial.(i)
          (noisy ~rot:walk.Datasets.init_rot_sigma ~trans:walk.Datasets.init_trans_sigma z))
    odometry;
  Stream.of_g2o ~name:"manhattan" (Datasets.to_g2o { truth with Datasets.odometry; loops; initial })

let smoothers () =
  ( Smoother.create (),
    Smoother.create ~params:{ Smoother.default_params with Smoother.window = Some window } () )

let setup ~seed =
  let truth = Datasets.manhattan walk in
  let first = Array.init first_units (fun k -> stream truth ~seed k) in
  (* warm-up: a short prefix through both smoothers *)
  let full, windowed = smoothers () in
  Array.iteri
    (fun i tick ->
      if i < 80 then
        List.iter
          (fun sm ->
            ignore (Stream.apply_tick sm tick);
            Smoother.update sm)
          [ full; windowed ])
    first.(0).Stream.ticks;
  { seed; truth; first }

let input st k = if k < first_units then st.first.(k) else stream st.truth ~seed:st.seed k

let tick_stats sm macs =
  let s = Smoother.stats sm in
  {
    macs;
    affected = float_of_int s.Smoother.affected_last /. float_of_int (max 1 s.Smoother.total_variables);
    relin = s.Smoother.relin_passes_last;
  }

let feed ~apply ~update sm tick =
  let t0 = Unix.gettimeofday () in
  Spans.span apply (fun () -> ignore (Stream.apply_tick sm tick));
  let (), macs = Spans.span update (fun () -> Macs.measure (fun () -> Smoother.update sm)) in
  ((Unix.gettimeofday () -. t0) *. 1e3, tick_stats sm macs)

let run _ (s : Stream.t) =
  let full, windowed = smoothers () in
  let n = Stream.length s in
  let full_ms = Array.make n 0.0 and window_ms = Array.make n 0.0 in
  let none = { macs = 0; affected = 0.0; relin = 0 } in
  let full_ticks = Array.make n none and window_ticks = Array.make n none in
  Array.iteri
    (fun i tick ->
      incr Spans.item;
      let ms, st = feed ~apply:"stream.apply_tick" ~update:"smoother.update" full tick in
      full_ms.(i) <- ms;
      full_ticks.(i) <- st;
      let ms, st = feed ~apply:"window.apply_tick" ~update:"window.update" windowed tick in
      window_ms.(i) <- ms;
      window_ticks.(i) <- st)
    s.Stream.ticks;
  { ticks = n; full_ms; window_ms; full_ticks; window_ticks; full; windowed }

let finite_var v = Array.for_all Float.is_finite (Var.local v v)

(* Full history: every estimate within [batch_tolerance] of a batch
   Gauss-Newton solve of the whole prefix.  Window: every live estimate
   finite.  A failing pass fails all of its ticks. *)
let check (s : Stream.t) p =
  let g = Stream.prefix_graph s ~n:(Stream.length s) in
  let report = Optimizer.optimize g in
  let worst =
    List.fold_left
      (fun w v -> Float.max w (Orianna_linalg.Vec.norm (Var.local (Graph.value g v) (Smoother.estimate p.full v))))
      0.0 (Smoother.live_variables p.full)
  in
  let window_finite =
    List.for_all (fun (_, v) -> finite_var v) (Smoother.all_estimates p.windowed)
    && Float.is_finite (Smoother.error p.windowed)
  in
  let ok = report.Optimizer.converged && worst <= batch_tolerance && window_finite in
  if not ok then
    Printf.eprintf "sessions: pass failed (batch converged %b, worst %.3g, window finite %b)\n"
      report.Optimizer.converged worst window_finite;
  if ok then 0 else p.ticks

type summary = {
  n : int;
  full_ms : float array;
  window_ms : float array;
  full_ticks : tick_stats array;
  window_ticks : tick_stats array;
  full_ratio : float;  (** largest tick MACs over a batch re-solve of its prefix *)
  window_ratio : float;
  marginalized : int;
  fingerprint : string;
}

let batch_ratio (s : Stream.t) ticks =
  let worst = ref 0 in
  Array.iteri (fun i t -> if t.macs > ticks.(!worst).macs then worst := i) ticks;
  let g = Stream.prefix_graph s ~n:(!worst + 1) in
  let r = Optimizer.optimize g in
  float_of_int ticks.(!worst).macs /. float_of_int (max 1 r.Optimizer.macs)

let summarize (s : Stream.t) (p : pass) =
  let macs ticks = String.concat "," (Array.to_list (Array.map (fun t -> string_of_int t.macs) ticks)) in
  {
    n = p.ticks;
    full_ms = p.full_ms;
    window_ms = p.window_ms;
    full_ticks = p.full_ticks;
    window_ticks = p.window_ticks;
    full_ratio = batch_ratio s p.full_ticks;
    window_ratio = batch_ratio s p.window_ticks;
    marginalized = (Smoother.stats p.windowed).Smoother.marginalized;
    fingerprint =
      Printf.sprintf "%s|%s|%h|%h" (macs p.full_ticks) (macs p.window_ticks) (Smoother.error p.full)
        (Smoother.error p.windowed);
  }

let items s = s.n
let layer_items s = s.n
let fingerprint s = s.fingerprint

let latency_ms s = Array.to_list (Array.map2 ( +. ) s.full_ms s.window_ms)

let pct xs p = Orianna_util.Stats.percentile (Array.of_list xs) p
let all f units = List.concat_map (fun s -> Array.to_list (f s)) units

let counts prefix f units =
  let ticks = all f units in
  let affected = List.filter_map (fun t -> if t.affected > 0.0 then Some t.affected else None) ticks in
  [
    (prefix ^ ".tick_macs_p50", pct (List.map (fun t -> float_of_int t.macs) ticks) 50.0);
    (prefix ^ ".tick_macs_p95", pct (List.map (fun t -> float_of_int t.macs) ticks) 95.0);
    (prefix ^ ".affected_fraction_p50", if affected = [] then nan else pct affected 50.0);
    ( prefix ^ ".relin_passes",
      float_of_int (List.fold_left (fun a t -> a + t.relin) 0 ticks) /. float_of_int (List.length units) );
  ]

let modeled units =
  counts "smoother" (fun s -> s.full_ticks) units
  @ counts "window" (fun s -> s.window_ticks) units
  @ [
      ("smoother.tick_to_batch_macs_max", List.fold_left (fun a s -> Float.max a s.full_ratio) 0.0 units);
      ("window.tick_to_batch_macs_max", List.fold_left (fun a s -> Float.max a s.window_ratio) 0.0 units);
      ( "window.marginalized",
        float_of_int (List.fold_left (fun a s -> a + s.marginalized) 0 units)
        /. float_of_int (List.length units) );
    ]

let host units ~throughput:_ =
  let full = all (fun s -> s.full_ms) units and win = all (fun s -> s.window_ms) units in
  [
    ("tick_p50_ms", pct full 50.0);
    ("tick_p95_ms", pct full 95.0);
    ("window_tick_p50_ms", pct win 50.0);
    ("window_tick_p95_ms", pct win 95.0);
  ]

let layers _ ~spans:_ ~program:_ = []
