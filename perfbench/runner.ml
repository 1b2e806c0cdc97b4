(* The measurement loop every workload shares.

   A workload is a sequence of units (a round of frames, a trace replay,
   a stream pass); unit [k] is a pure function of the workload seed and
   [k].  One run:

   - sets up (input generation, warm-up work) before its first unit, and
     again after each of the next units until it has [setup_repeats]
     timings, and reports their median as [setup_s] -- spread over the
     run, so that one slow moment of a shared host does not decide it,
     and after fixed units, so that every run leaves the same heap
     behind;
   - runs units back to back, untraced, until [seconds] have passed and
     at least [W.first_units] are done -- the end-to-end metrics come
     from this loop, and the modeled metrics from its first units;
   - times a fixed reference kernel after every unit of that loop, and
     scales the end-to-end times to a host of fixed speed (see
     [reference_ms]);
   - checks every unit's outputs between units, outside the timed
     windows, and runs unit 0 once more to check that a unit is a pure
     function of its input;
   - with tracing on, runs the same units again with our spans and the
     program's [Obs] registry on, compares every unit with its untraced
     twin, runs the first units once more at the pool's shipped lane
     count if the workload owns the [par.*] metrics, and runs the first
     units on a held-out seed. *)

let setup_repeats = 9

module type WORKLOAD = sig
  val name : string

  val first_units : int
  (** Units that are always run; the modeled metrics come from them. *)

  val metrics : string list
  (** The per-layer metrics the workload measures, besides the ones
      every workload reports; each must come out finite. *)

  type state
  type input
  type result
  type summary

  val setup : seed:int -> state
  val input : state -> int -> input

  val run : int -> input -> result
  (** The timed work of unit [k], wrapped in layer spans. *)

  val check : input -> result -> int
  (** Items of the unit that fail a correctness check. *)

  val summarize : input -> result -> summary
  val items : summary -> int
  val layer_items : summary -> int
  val fingerprint : summary -> string

  val latency_ms : summary -> float list
  (** Latency samples of the unit; empty means the whole unit is one. *)

  val modeled : summary list -> (string * float) list
  (** Exact figures over the first units (also printed for the held-out seed). *)

  val host : summary list -> throughput:float -> (string * float) list
  (** The workload's own host-time figures from the untraced loop;
      [throughput] is the median over units of items per second. *)

  val layers :
    summary list ->
    spans:Spans.t list ->
    program:(string * float * float) list ->
    (string * float) list
end

(* Per-layer metrics every workload reports. *)
let common = [ "error_rate"; "host.reference_ms"; "obs.overhead_ratio"; "obs.span_coverage" ]

(* Host speed.  A shared 2-vCPU host changed speed by up to 1.7x for
   minutes at a time: a whole 30-second run can fall in a slow
   stretch, which no estimator inside the run removes.
   So the untraced loop times [reference_kernel] (short-lived
   allocation, table reads and float work; it promotes nothing) three
   times after every unit, and the end-to-end times are reported for a
   host on which the kernel takes [reference_ms]: a time reads
   [raw *. reference_ms /. median kernel time].  On the pipeline
   workload, ten runs of the scaled times kept a quartile spread under
   0.07 where the raw times reached 0.27.  A change to the program
   moves the scaled times as much as the raw ones; the raw times are
   printed beside them. *)
let reference_ms = 5.0

let reference_table = Array.init 32_768 (fun i -> (i * 7919) land 32_767)

let reference_kernel () =
  let acc = ref 0.0 and k = ref 0 in
  for i = 1 to 70_000 do
    let l = List.init 8 (fun j -> float_of_int (i + j)) in
    k := reference_table.((!k + i) land 32_767);
    acc := !acc +. List.fold_left ( +. ) (float_of_int !k) l
  done;
  ignore (Sys.opaque_identity !acc)

let time f =
  let t0 = Unix.gettimeofday () in
  let r = f () in
  (r, Unix.gettimeofday () -. t0)

let median xs = Orianna_util.Stats.median (Array.of_list xs)

(* A count that is 0 was not measured. *)
let nonzero c = if c = 0 then nan else float_of_int c

type outcome = {
  attempted : int;
  failed : int;
  metrics : (string * float) list;
      (** nan marks a metric the workload owns but did not measure *)
}

module Pool = Orianna_par.Pool

module Make (W : WORKLOAD) = struct
  type loop = {
    summaries : W.summary list;
    wall_s : float;  (** sum of the units' timed windows *)
    windows : (float * float) list;
    attempted : int;
    failed : int;
  }

  (* Run units 0, 1, ...: at least [min_units], then while
     [continue elapsed] holds; [between k] runs after unit [k]'s check. *)
  let loop ?(between = ignore) st ~min_units ~continue =
    let start = Unix.gettimeofday () in
    let rec go k acc =
      if k >= min_units && not (continue (Unix.gettimeofday () -. start)) then
        { acc with summaries = List.rev acc.summaries; windows = List.rev acc.windows }
      else begin
        let input = W.input st k in
        let t0 = Spans.now () in
        let r = W.run k input in
        let t1 = Spans.now () in
        let failed = W.check input r in
        let s = W.summarize input r in
        between k;
        go (k + 1)
          {
            summaries = s :: acc.summaries;
            wall_s = acc.wall_s +. (t1 -. t0);
            windows = (t0, t1) :: acc.windows;
            attempted = acc.attempted + W.items s;
            failed = acc.failed + failed;
          }
      end
    in
    go 0 { summaries = []; wall_s = 0.0; windows = []; attempted = 0; failed = 0 }

  let latencies (l : loop) =
    List.concat
      (List.map2
         (fun s (t0, t1) ->
           match W.latency_ms s with [] -> [ (t1 -. t0) *. 1e3 ] | xs -> xs)
         l.summaries l.windows)

  let unit_rates (l : loop) =
    List.map2 (fun s (t0, t1) -> float_of_int (W.items s) /. (t1 -. t0)) l.summaries l.windows

  let rec take n = function x :: xs when n > 0 -> x :: take (n - 1) xs | _ -> []

  (* Units whose fingerprint differs from their twin's fail as a whole. *)
  let mismatched a b =
    List.fold_left2
      (fun acc x y ->
        if W.fingerprint x = W.fingerprint y then acc
        else begin
          Printf.eprintf "%s: unit output differs between two runs of one input\n" W.name;
          acc + W.items x
        end)
      0 a b

  let pr_metrics title ms =
    Printf.printf "%s\n" title;
    List.iter (fun (n, v) -> Printf.printf "  %-34s %.6g\n" n v) ms

  let items_of (l : loop) =
    float_of_int (List.fold_left (fun a s -> a + W.layer_items s) 0 l.summaries)

  let run ~seed ~seconds ~trace =
    (* One pool lane for the measured loops: no worker domain is
       spawned.  Every minor collection stops all domains, so with a
       second domain a run stalls whenever the host deschedules either
       of two vCPUs; on a shared 2-vCPU host that made 3 of 10 pipeline
       runs three times slower.  The traced run measures the pool at
       its shipped lane count separately. *)
    let shipped_jobs = Pool.default_jobs () in
    Pool.set_default_jobs 1;
    let st, first_setup = time (fun () -> W.setup ~seed) in
    let setups = ref [ first_setup ] and kernel = ref [] in
    let again k =
      if k < setup_repeats - 1 then setups := snd (time (fun () -> W.setup ~seed)) :: !setups;
      for _ = 1 to 3 do
        kernel := snd (time reference_kernel) :: !kernel
      done
    in
    Gc.compact ();
    let plain =
      loop st ~between:again ~min_units:(max W.first_units (setup_repeats - 1))
        ~continue:(fun elapsed -> elapsed < seconds)
    in
    let kernel_ms = median !kernel *. 1e3 in
    let scale = reference_ms /. kernel_ms in
    let setup_s = median !setups in
    let peak_heap_mb =
      float_of_int ((Gc.quick_stat ()).Gc.top_heap_words * (Sys.word_size / 8)) /. 1048576.0
    in
    let units = List.length plain.summaries in
    let replay = loop st ~min_units:1 ~continue:(fun _ -> false) in
    let replay_failed = mismatched (take 1 plain.summaries) replay.summaries in
    let lat = latencies plain in
    let first = take W.first_units plain.summaries in
    let modeled = W.modeled first in
    let throughput = median (unit_rates plain) in
    let host = W.host plain.summaries ~throughput in
    Printf.printf "%s: seed %d, %d units, %d items in %.3f s timed\n" W.name seed units
      plain.attempted plain.wall_s;
    pr_metrics "modeled (first units)" modeled;
    pr_metrics "host (untraced)" host;
    Printf.printf "host speed: reference kernel %.4g ms, times scaled by %.4g\n" kernel_ms scale;
    pr_metrics "end-to-end times before scaling"
      [ ("setup_s", setup_s); ("throughput_per_s", throughput); ("latency_p50_ms", median lat) ];
    let attempted = plain.attempted + replay.attempted in
    let failed = plain.failed + replay.failed + replay_failed in
    if not trace then
      {
        attempted;
        failed;
        metrics =
          [
            ("setup_s", setup_s *. scale);
            ("peak_heap_mb", peak_heap_mb);
            ("throughput_per_s", throughput /. scale);
            ("latency_p50_ms", median lat *. scale);
          ];
      }
    else begin
      ignore (Pool.drain_stats ());
      Spans.start ();
      let traced = loop st ~min_units:units ~continue:(fun _ -> false) in
      let pool = Pool.drain_stats () in
      let spans = Spans.recorded () in
      let program = Spans.program_spans () in
      let counter = Orianna_obs.Obs.counter in
      let layer_items = items_of traced in
      let per_item name = Spans.total (Spans.named name spans) *. 1e3 /. layer_items in
      let program_per_item name = Spans.program_total name program *. 1e3 /. layer_items in
      let evaluated = nonzero (counter "dse.candidates.evaluated") in
      let top = List.filter (fun (s : Spans.t) -> s.parent < 0) spans in
      let coverage =
        Spans.covered (Spans.union (List.map Spans.interval top)) (0.0, infinity)
        /. traced.wall_s
      in
      let generic =
        [
          ("fg.solve_ms", per_item "fg.solve");
          ("compiler.compile_ms", per_item "compiler.compile");
          ("compiler.lower_ms", program_per_item "compile.lower");
          ("isa.optimize_ms", program_per_item "compile.optimize");
          ("hw.dse_ms", per_item "hw.dse");
          ("hw.dse_candidates_evaluated", evaluated /. layer_items);
          ( "hw.dse_cache_hit_ratio",
            let cached = float_of_int (counter "dse.candidates.cached") in
            cached /. (cached +. evaluated) );
          ("sim.schedule_ms", per_item "sim.schedule");
          ( "sim.ns_per_instr",
            Spans.program_total "sim.schedule" program *. 1e9 /. nonzero (counter "sim.instructions") );
          ("serve.run_ms", per_item "serve.run");
          ("smoother.update_ms", per_item "smoother.update");
          ("stream.apply_tick_ms", per_item "stream.apply_tick");
          ("window.update_ms", per_item "window.update");
          ("window.apply_tick_ms", per_item "window.apply_tick");
          ("obs.overhead_ratio", traced.wall_s /. plain.wall_s);
          ("obs.span_coverage", coverage);
        ]
      in
      let specific = W.layers traced.summaries ~spans ~program in
      let self_times =
        List.sort_uniq compare (List.map (fun (s : Spans.t) -> s.name) spans)
        |> List.map (fun name ->
               let outer = Spans.named name spans in
               let ids = Hashtbl.create 64 in
               List.iter (fun (s : Spans.t) -> Hashtbl.replace ids s.id ()) outer;
               let inner =
                 List.filter_map
                   (fun (s : Spans.t) ->
                     if Hashtbl.mem ids s.parent then Some (Spans.interval s) else None)
                   spans
               in
               (name, Spans.self_time outer inner *. 1e3 /. layer_items))
      in
      pr_metrics "layer self time (ms per item, our spans)" self_times;
      (* The pool at its shipped lane count, on the first units: busy
         share of the lanes, the caller's join wait per item, and the
         DSE speed-up over the single-lane traced loop. *)
      let par, par_pool, par_failed, par_attempted =
        if not (List.mem "par.busy_ratio" W.metrics) then ([], [], 0, 0)
        else begin
          Pool.set_default_jobs shipped_jobs;
          let first_id = !Spans.next_id in
          let pass = loop st ~min_units:W.first_units ~continue:(fun _ -> false) in
          let records = Pool.drain_stats () in
          Pool.set_default_jobs 1;
          let pass_spans = List.filter (fun (s : Spans.t) -> s.id >= first_id) (Spans.recorded ()) in
          let sum = Pool.summarize records in
          let lane_s =
            List.fold_left
              (fun acc (r : Pool.run_record) -> acc +. (float_of_int r.rjobs *. (r.done_s -. r.submit_s)))
              0.0 records
          in
          let busy =
            Array.fold_left (fun acc (l : Pool.lane_totals) -> acc +. l.tbusy_s) 0.0 sum.per_lane
          in
          let pass_items = items_of pass in
          let dse_ms = Spans.total (Spans.named "hw.dse" pass_spans) *. 1e3 /. pass_items in
          ( [
              ("par.busy_ratio", busy /. lane_s);
              ("par.join_wait_s", sum.join_wait_total_s /. pass_items);
              ("par.dse_speedup", per_item "hw.dse" /. dse_ms);
            ],
            records,
            pass.failed + mismatched first pass.summaries,
            pass.attempted )
        end
      in
      if par <> [] then pr_metrics (Printf.sprintf "pool at %d lanes (first units)" shipped_jobs) par;
      let dir = "perfbench/out" in
      (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
      let path = Printf.sprintf "%s/%s-seed%d.trace.json" dir W.name seed in
      Spans.write_chrome path ~pool:(pool @ par_pool);
      Spans.stop ();
      Printf.printf "chrome trace -> %s\n" path;
      let traced_failed = traced.failed + mismatched plain.summaries traced.summaries in
      let coverage_failed = if coverage < 0.9 then 1 else 0 in
      if coverage_failed > 0 then
        Printf.eprintf "%s: layer spans cover %.3f of the timed wall clock (< 0.9)\n" W.name coverage;
      let heldout_seed = seed + 1_000_003 in
      let held_st = W.setup ~seed:heldout_seed in
      let held = loop held_st ~min_units:W.first_units ~continue:(fun _ -> false) in
      pr_metrics
        (Printf.sprintf "modeled, held-out seed %d" heldout_seed)
        (W.modeled held.summaries);
      let failed = failed + traced_failed + coverage_failed + par_failed + held.failed in
      let attempted = attempted + traced.attempted + par_attempted + held.attempted in
      let measured =
        (("error_rate", float_of_int failed /. float_of_int attempted)
         :: ("host.reference_ms", kernel_ms) :: modeled)
        @ host @ generic @ specific @ par
      in
      {
        attempted;
        failed;
        metrics =
          List.map
            (fun n -> (n, Option.value (List.assoc_opt n measured) ~default:nan))
            (common @ W.metrics);
      }
    end
end
