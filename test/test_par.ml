(* Tests for the domain pool (Orianna_par.Pool) and for the contract
   that parallelisation did not change a single observable bit:

   - [Pool.parallel_map]/[parallel_map_reduce] are bit-identical at
     jobs = 1, 2 and 4, preserve input order, re-raise the first
     failing slot's exception, and degrade to sequential execution
     when nested;
   - [Rng.split_n] equals repeated in-loop splitting;
   - the scheduler hot path ([Schedule.run], and [Schedule.run_prepared]
     on one [prepared] reused across a DSE-like accelerator sequence)
     matches a verbatim copy of the seed's hashtable-based
     implementation field for field on random compiled applications,
     across all three issue policies, both priority policies, latency
     jitter and widened QR arrays;
   - fault campaigns and DSE produce identical summaries at any job
     count, and the shared DSE cache memoizes candidate evaluation;
   - [Obs] counters are exact under concurrent counting from several
     domains. *)

open Orianna_isa
open Orianna_hw
open Orianna_sim
open Orianna_util
open Orianna_apps
module Pool = Orianna_par.Pool
module Compile = Orianna_compiler.Compile
module Campaign = Orianna_fault.Campaign
module Obs = Orianna_obs.Obs

(* ---------- parallel_map combinators ---------- *)

let test_parallel_map_identical () =
  let xs = Array.init 257 Fun.id in
  let f i = Printf.sprintf "%d:%.17g" (i * i) (sin (float_of_int i)) in
  let expected = Array.map f xs in
  List.iter
    (fun jobs ->
      Alcotest.(check (array string))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.parallel_map ~jobs f xs))
    [ 1; 2; 4 ]

let test_parallel_map_order () =
  (* Results land in their input slot even though slots are claimed
     dynamically by whichever lane is free. *)
  let xs = Array.init 1000 Fun.id in
  Alcotest.(check (array int)) "identity preserved" xs (Pool.parallel_map ~jobs:4 Fun.id xs)

let test_exception_first_slot () =
  let raised =
    try
      ignore
        (Pool.parallel_map ~jobs:4
           (fun i -> if i >= 50 then failwith (string_of_int i) else i)
           (Array.init 100 Fun.id));
      None
    with Failure msg -> Some msg
  in
  (* Slots 50..99 all fail; the re-raised exception must be the first
     one in input order, independent of completion order. *)
  Alcotest.(check (option string)) "first failing slot re-raised" (Some "50") raised

let test_map_reduce_deterministic () =
  let xs = Array.init 64 (fun i -> float_of_int (i + 1)) in
  let map x = sin x in
  (* Deliberately non-associative: only an in-order fold gets this
     right, which is what the combinator guarantees. *)
  let reduce a b = (a *. 0.5) +. b in
  let expected = Array.fold_left reduce 1.0 (Array.map map xs) in
  List.iter
    (fun jobs ->
      Alcotest.(check (float 0.0))
        (Printf.sprintf "jobs=%d" jobs)
        expected
        (Pool.parallel_map_reduce ~jobs ~map ~reduce ~init:1.0 xs))
    [ 1; 2; 4 ]

let test_nested_runs_sequentially () =
  (* An inner parallel_map issued from inside a pool task must not
     deadlock — it falls back to sequential execution. *)
  Pool.set_default_jobs 4;
  let outer =
    Pool.parallel_map
      (fun i ->
        Array.fold_left ( + ) 0 (Pool.parallel_map (fun j -> (i * 100) + j) (Array.init 10 Fun.id)))
      (Array.init 8 Fun.id)
  in
  Pool.set_default_jobs 1;
  let expected =
    Array.init 8 (fun i -> Array.fold_left ( + ) 0 (Array.init 10 (fun j -> (i * 100) + j)))
  in
  Alcotest.(check (array int)) "nested map correct" expected outer

let prop_chunk_ranges =
  QCheck.Test.make ~name:"pool: chunk_ranges is a balanced contiguous partition" ~count:500
    QCheck.(pair small_nat small_nat)
    (fun (chunks, n) ->
      let ranges = Pool.chunk_ranges ~chunks ~n in
      if n = 0 then Array.length ranges = 0
      else begin
        let k = Array.length ranges in
        let contiguous = ref (fst ranges.(0) = 0 && snd ranges.(k - 1) = n) in
        for c = 1 to k - 1 do
          if fst ranges.(c) <> snd ranges.(c - 1) then contiguous := false
        done;
        let sizes = Array.map (fun (lo, hi) -> hi - lo) ranges in
        let mn = Array.fold_left min max_int sizes and mx = Array.fold_left max 0 sizes in
        k >= 1 && k <= max 1 chunks && k <= n && !contiguous && mn >= 1 && mx - mn <= 1
      end)

(* ---------- RNG stream splitting ---------- *)

let test_split_n_matches_split_loop () =
  let a = Rng.of_int 1234 and b = Rng.of_int 1234 in
  let sa = Rng.split_n a 8 in
  let sb = Array.make 8 b in
  for i = 0 to 7 do
    sb.(i) <- Rng.split b
  done;
  Array.iteri
    (fun i ra ->
      for draw = 0 to 2 do
        Alcotest.(check int64)
          (Printf.sprintf "stream %d draw %d" i draw)
          (Rng.int64 sb.(i)) (Rng.int64 ra)
      done)
    sa;
  (* The parent stream advanced identically in both styles. *)
  Alcotest.(check int64) "parent state aligned" (Rng.int64 b) (Rng.int64 a)

(* ---------- differential scheduler check ---------- *)

(* Verbatim copy of the seed's hashtable-based scheduler and its
   accounting (telemetry stripped), kept as the reference the
   array-based hot path is differenced against. *)
module Ref_sched = struct
  module Heap = Orianna_util.Heap

  let class_index cls =
    let rec find i = function
      | [] -> assert false
      | c :: rest -> if c = cls then i else find (i + 1) rest
    in
    find 0 Unit_model.all_classes

  let num_classes = List.length Unit_model.all_classes

  let priorities (p : Program.t) latency_of =
    let n = Array.length p.Program.instrs in
    let prio = Array.make n 0 in
    for i = n - 1 downto 0 do
      let ins = p.Program.instrs.(i) in
      prio.(i) <- max prio.(i) (latency_of i);
      Array.iter (fun s -> prio.(s) <- max prio.(s) (prio.(i) + latency_of s)) ins.Instr.srcs
    done;
    prio

  let schedule_ooo (p : Program.t) ~latency_of ~prio ~counts ~starts ~finishes ~ids ~t0 =
    let in_subset = Hashtbl.create (Array.length ids) in
    Array.iter (fun id -> Hashtbl.add in_subset id ()) ids;
    let indeg = Hashtbl.create (Array.length ids) in
    let children = Hashtbl.create (Array.length ids) in
    Array.iter
      (fun id ->
        let ins = p.Program.instrs.(id) in
        let deps =
          Array.to_list ins.Instr.srcs |> List.filter (fun s -> Hashtbl.mem in_subset s)
        in
        Hashtbl.replace indeg id (List.length deps);
        List.iter
          (fun s ->
            Hashtbl.replace children s
              (id :: Option.value ~default:[] (Hashtbl.find_opt children s)))
          deps)
      ids;
    let arrivals =
      Array.init num_classes (fun _ -> Heap.create ~cmp:(fun (ta, _) (tb, _) -> compare ta tb))
    in
    let ready =
      Array.init num_classes (fun _ -> Heap.create ~cmp:(fun (pa, _) (pb, _) -> compare pb pa))
    in
    let free : int array array =
      Array.of_list
        (List.map (fun cls -> Array.make (List.assoc cls counts) t0) Unit_model.all_classes)
    in
    let ready_dep_time = Hashtbl.create (Array.length ids) in
    let arrive id t =
      let cls = class_index (Unit_model.class_of_op p.Program.instrs.(id).Instr.op) in
      Heap.push arrivals.(cls) (max t t0, id)
    in
    Array.iter (fun id -> if Hashtbl.find indeg id = 0 then arrive id t0) ids;
    let remaining = ref (Array.length ids) in
    let t = ref t0 in
    let makespan = ref t0 in
    while !remaining > 0 do
      for c = 0 to num_classes - 1 do
        let continue_ = ref true in
        while !continue_ do
          match Heap.peek arrivals.(c) with
          | Some (ta, id) when ta <= !t ->
              ignore (Heap.pop arrivals.(c));
              Heap.push ready.(c) (prio.(id), id)
          | Some _ | None -> continue_ := false
        done
      done;
      let scheduled_any = ref false in
      for c = 0 to num_classes - 1 do
        let continue_ = ref true in
        while !continue_ && not (Heap.is_empty ready.(c)) do
          let best = ref (-1) in
          Array.iteri
            (fun k ft -> if ft <= !t && (!best < 0 || ft < free.(c).(!best)) then best := k)
            free.(c);
          if !best < 0 then continue_ := false
          else begin
            match Heap.pop ready.(c) with
            | None -> continue_ := false
            | Some (_, id) ->
                let dep_ready = Option.value ~default:t0 (Hashtbl.find_opt ready_dep_time id) in
                let start = max !t dep_ready in
                let lat = latency_of id in
                let finish = start + lat in
                starts.(id) <- start;
                finishes.(id) <- finish;
                free.(c).(!best) <- finish;
                makespan := max !makespan finish;
                decr remaining;
                scheduled_any := true;
                List.iter
                  (fun child ->
                    let d = Hashtbl.find indeg child - 1 in
                    Hashtbl.replace indeg child d;
                    let prev =
                      Option.value ~default:t0 (Hashtbl.find_opt ready_dep_time child)
                    in
                    Hashtbl.replace ready_dep_time child (max prev finish);
                    if d = 0 then arrive child finish)
                  (Option.value ~default:[] (Hashtbl.find_opt children id))
          end
        done
      done;
      if !remaining > 0 && not !scheduled_any then begin
        let next = ref max_int in
        for c = 0 to num_classes - 1 do
          (match Heap.peek arrivals.(c) with
          | Some (ta, _) when ta > !t -> next := min !next ta
          | _ -> ());
          if not (Heap.is_empty ready.(c)) then
            Array.iter (fun ft -> if ft > !t then next := min !next ft) free.(c)
        done;
        if !next = max_int then failwith "reference scheduler deadlocked";
        t := !next
      end
    done;
    !makespan

  let schedule_in_order (p : Program.t) ~latency_of ~starts ~finishes =
    let makespan = ref 0 in
    Array.iter
      (fun (ins : Instr.t) ->
        let id = ins.Instr.id in
        let dep_ready = Array.fold_left (fun acc s -> max acc finishes.(s)) 0 ins.Instr.srcs in
        let start = max dep_ready !makespan in
        let finish = start + latency_of id in
        starts.(id) <- start;
        finishes.(id) <- finish;
        makespan := finish)
      p.Program.instrs;
    !makespan

  (* The full result under the seed's dispatch logic and accounting. *)
  let run ?(priority = Schedule.Critical_path) ?jitter ~accel ~policy (p : Program.t) =
    let n = Array.length p.Program.instrs in
    let src_shape id = (p.Program.instrs.(id).Instr.rows, p.Program.instrs.(id).Instr.cols) in
    let nominal id =
      let ins = p.Program.instrs.(id) in
      Unit_model.latency
        (Unit_model.class_of_op ins.Instr.op)
        ~qr_rotators:accel.Accel.qr_rotators ins ~src_shape
    in
    let latency_of =
      match jitter with None -> nominal | Some j -> fun id -> nominal id + max 0 (j id)
    in
    let prio () =
      match priority with
      | Schedule.Critical_path -> priorities p latency_of
      | Schedule.Fifo -> Array.init n (fun i -> -i)
    in
    let counts = accel.Accel.counts in
    let starts = Array.make n 0 and finishes = Array.make n 0 in
    let issue_base = Array.make n 0 in
    let makespan =
      match policy with
      | Schedule.In_order -> schedule_in_order p ~latency_of ~starts ~finishes
      | Schedule.Ooo_full ->
          schedule_ooo p ~latency_of ~prio:(prio ()) ~counts ~starts ~finishes
            ~ids:(Array.init n Fun.id) ~t0:0
      | Schedule.Ooo_fine ->
          let prio = prio () in
          let algos =
            Array.fold_left
              (fun acc (i : Instr.t) ->
                if List.mem i.Instr.algo acc then acc else i.Instr.algo :: acc)
              [] p.Program.instrs
            |> List.rev
          in
          List.fold_left
            (fun t0 algo ->
              let ids =
                Array.of_list
                  (Array.to_list p.Program.instrs
                  |> List.filter_map (fun (i : Instr.t) ->
                         if i.Instr.algo = algo then Some i.Instr.id else None))
              in
              Array.iter (fun id -> issue_base.(id) <- t0) ids;
              schedule_ooo p ~latency_of ~prio ~counts ~starts ~finishes ~ids ~t0)
            0 algos
    in
    let phase_busy = Hashtbl.create 4 in
    let bump tbl k v =
      Hashtbl.replace tbl k (v + Option.value ~default:0 (Hashtbl.find_opt tbl k))
    in
    let unit_busy = Hashtbl.create 8 in
    let dynamic = ref 0.0 in
    let stall_operand = ref 0 and stall_structural = ref 0 in
    Array.iter
      (fun (ins : Instr.t) ->
        let id = ins.Instr.id in
        let cls = Unit_model.class_of_op ins.Instr.op in
        let lat = latency_of id in
        bump phase_busy ins.Instr.phase lat;
        bump unit_busy cls lat;
        let base = issue_base.(id) in
        let ready = Array.fold_left (fun acc s -> max acc finishes.(s)) base ins.Instr.srcs in
        stall_operand := !stall_operand + (ready - base);
        stall_structural := !stall_structural + (starts.(id) - ready);
        dynamic := !dynamic +. Unit_model.dynamic_energy_nj cls ins ~src_shape)
      p.Program.instrs;
    let seconds = float_of_int makespan /. (accel.Accel.clock_mhz *. 1e6) in
    let dynamic_energy_j = !dynamic *. 1e-9 in
    let static_energy_j = Accel.static_power_w accel *. seconds in
    let sorted tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] |> List.sort compare in
    {
      Schedule.cycles = makespan;
      seconds;
      dynamic_energy_j;
      static_energy_j;
      energy_j = dynamic_energy_j +. static_energy_j;
      phase_busy = sorted phase_busy;
      unit_busy = sorted unit_busy;
      utilization =
        List.map
          (fun (cls, k) ->
            let busy = Option.value ~default:0 (Hashtbl.find_opt unit_busy cls) in
            (cls, float_of_int busy /. float_of_int (max 1 (makespan * k))))
          counts;
      instructions = n;
      starts;
      finishes;
      issue_base;
      stall_operand_cycles = !stall_operand;
      stall_structural_cycles = !stall_structural;
    }
end

let apps = Array.of_list App.all

(* A DSE-like walk: the greedy search replicates units and widens the
   QR array one move at a time, and revisits configurations across
   rounds.  Run on one [prepared], this exercises the lazily filled
   per-rotator-width latency tables in every order. *)
let dse_walk =
  let base = Accel.base () in
  let m = Accel.with_extra base Unit_model.Matmul in
  let mw = Accel.with_wider_qr m in
  let mwq = Accel.with_extra mw Unit_model.Qr_unit in
  let mwqw = Accel.with_wider_qr mwq in
  let wide =
    List.fold_left Accel.with_extra mwqw
      [ Unit_model.Matmul; Unit_model.Vector_alu; Unit_model.Dma; Unit_model.Special ]
  in
  [ base; m; mw; Accel.with_wider_qr base; mwq; mwqw; m; wide; base; mw ]

let accel_variant i = List.nth dse_walk (i mod List.length dse_walk)

let sched_arb =
  QCheck.(
    make
      Gen.(triple (int_range 0 1_000_000) (int_range 0 3) (int_range 0 1_000))
      ~print:Print.(triple int int int))

let policies = [ Schedule.In_order; Schedule.Ooo_fine; Schedule.Ooo_full ]

(* Fault-injection style jitter: extra cycles (some negative, clamped
   to 0) on a seed-dependent sprinkle of instructions. *)
let jitter_of salt id = if (id + salt) mod 11 = 0 then (id mod 5) - 1 else 0

let same_result what (r : Schedule.result) (e : Schedule.result) =
  let fail field = QCheck.Test.fail_reportf "%s: %s differs" what field in
  if r.Schedule.cycles <> e.Schedule.cycles then fail "cycles";
  if r.Schedule.seconds <> e.Schedule.seconds then fail "seconds";
  if r.Schedule.dynamic_energy_j <> e.Schedule.dynamic_energy_j then fail "dynamic_energy_j";
  if r.Schedule.static_energy_j <> e.Schedule.static_energy_j then fail "static_energy_j";
  if r.Schedule.energy_j <> e.Schedule.energy_j then fail "energy_j";
  if r.Schedule.phase_busy <> e.Schedule.phase_busy then fail "phase_busy";
  if r.Schedule.unit_busy <> e.Schedule.unit_busy then fail "unit_busy";
  if r.Schedule.utilization <> e.Schedule.utilization then fail "utilization";
  if r.Schedule.instructions <> e.Schedule.instructions then fail "instructions";
  if r.Schedule.starts <> e.Schedule.starts then fail "starts";
  if r.Schedule.finishes <> e.Schedule.finishes then fail "finishes";
  if r.Schedule.issue_base <> e.Schedule.issue_base then fail "issue_base";
  if r.Schedule.stall_operand_cycles <> e.Schedule.stall_operand_cycles then
    fail "stall_operand_cycles";
  if r.Schedule.stall_structural_cycles <> e.Schedule.stall_structural_cycles then
    fail "stall_structural_cycles";
  (* Belt and braces: nothing outside the fields named above. *)
  r = e

let prop_schedule_matches_seed_reference =
  QCheck.Test.make
    ~name:"schedule: array hot path = seed hashtable reference, every field (fresh and shared prepared)"
    ~count:12 sched_arb (fun (seed, app_i, salt) ->
      let app = apps.(app_i mod Array.length apps) in
      let p = Compile.compile_application (app.App.graphs (Rng.of_int seed)) in
      let prepared = Schedule.prepare p in
      List.for_all
        (fun accel ->
          List.for_all
            (fun policy ->
              List.for_all
                (fun (priority, jitter) ->
                  let what =
                    Printf.sprintf "%s %s %s qr%d %s%s" app.App.name accel.Accel.name
                      (Schedule.policy_name policy) accel.Accel.qr_rotators
                      (match priority with Schedule.Critical_path -> "cp" | Schedule.Fifo -> "fifo")
                      (if jitter = None then "" else " jitter")
                  in
                  let expected = Ref_sched.run ~priority ?jitter ~accel ~policy p in
                  let fresh = Schedule.run ~priority ?jitter ~accel ~policy p in
                  let shared = Schedule.run_prepared ~priority ?jitter ~accel ~policy prepared in
                  same_result ("fresh " ^ what) fresh expected
                  && same_result ("shared " ^ what) shared expected
                  && (jitter <> None || Schedule.check_invariants ~accel p fresh = Ok ()))
                [
                  (Schedule.Critical_path, None);
                  (Schedule.Fifo, None);
                  (Schedule.Critical_path, Some (jitter_of salt));
                ])
            policies)
        (accel_variant salt :: dse_walk))

(* One [prepared] whose latency tables start empty, evaluated from four
   pool lanes at once over the whole walk (several lanes race to fill
   the same rotator width), must give exactly the sequential fresh
   runs. *)
let test_shared_prepared_on_pool_lanes () =
  let p = Compile.compile_application (App.quadrotor.App.graphs (Rng.of_int 11)) in
  let accels = Array.of_list (dse_walk @ dse_walk) in
  let expected = Array.map (fun accel -> Schedule.run ~accel ~policy:Schedule.Ooo_full p) accels in
  let prepared = Schedule.prepare p in
  let got =
    Pool.parallel_map ~jobs:4 ~chunk:1
      (fun accel -> Schedule.run_prepared ~accel ~policy:Schedule.Ooo_full prepared)
      accels
  in
  Array.iteri
    (fun i e -> Alcotest.(check bool) (Printf.sprintf "candidate %d identical" i) true (got.(i) = e))
    expected

(* The DSE objective runs on one prepared program shared by every pool
   lane: the search result must not depend on the job count. *)
let test_generate_identical_across_jobs () =
  let generate jobs p =
    Pool.set_default_jobs jobs;
    Dse.result_json (Orianna.Pipeline.generate p)
  in
  List.iter
    (fun (app : App.t) ->
      let p = Compile.compile_application (app.App.graphs (Rng.of_int 42)) in
      Util_jdiff.check_identical
        ~what:("Pipeline.generate " ^ app.App.name)
        (generate 1 p) (generate 4 p))
    App.all;
  Pool.set_default_jobs 1

(* ---------- campaign / DSE job-count invariance ---------- *)

let test_campaign_identical_across_jobs () =
  let run_with jobs =
    Pool.set_default_jobs jobs;
    let graphs = App.mobile_robot.App.graphs (Rng.of_int 7) in
    let program = Compile.compile_application graphs in
    let accel = Accel.with_extra (Accel.base ()) Unit_model.Matmul in
    Campaign.run
      ~config:{ Campaign.default_config with Campaign.missions = 24 }
      ~rng:(Rng.of_int 42) ~graphs ~program ~accel ()
  in
  let s1 = run_with 1 in
  let s4 = run_with 4 in
  Pool.set_default_jobs 1;
  Alcotest.(check bool) "summaries identical at -j1 and -j4" true (s1 = s4)

let test_dse_shared_cache_memoizes () =
  Pool.set_default_jobs 1;
  Obs.enable ();
  Obs.reset ();
  let evals = ref 0 in
  let evaluate accel =
    incr evals;
    100.0 /. (1.0 +. float_of_int (Accel.count accel Unit_model.Matmul))
  in
  let cache = Dse.cache () in
  let r1 = Dse.optimize ~budget:Resource.zc706 ~evaluate ~cache () in
  let n1 = !evals in
  let r2 = Dse.optimize ~budget:Resource.zc706 ~evaluate ~cache () in
  let n2 = !evals - n1 in
  Obs.disable ();
  Alcotest.(check bool) "results identical" true (r1 = r2);
  Alcotest.(check bool) "first run evaluated something" true (n1 > 0);
  Alcotest.(check int) "second run fully served from cache" 0 n2;
  Alcotest.(check bool) "dse.candidates.cached counter bumped" true
    (Obs.counter "dse.candidates.cached" > 0)

(* ---------- Obs under concurrent counting ---------- *)

let test_obs_counts_exact_across_domains () =
  Obs.enable ();
  Obs.reset ();
  let domains =
    List.init 4 (fun _ ->
        Domain.spawn (fun () ->
            for _ = 1 to 1000 do
              Obs.count "par.test.hits"
            done))
  in
  List.iter Domain.join domains;
  let total = Obs.counter "par.test.hits" in
  Obs.disable ();
  Alcotest.(check int) "4 domains x 1000 increments" 4000 total

(* ---------- pool instrumentation ---------- *)

(* With telemetry on, every pool run leaves a [run_record]: lane slot
   counts must add up to the submitted items, the timeline must be
   ordered, and per-run registry metrics must appear. *)
let test_pool_run_records () =
  Obs.set_clock (fun () -> Unix.gettimeofday ());
  Obs.enable ();
  Obs.reset ();
  ignore (Pool.drain_stats ());
  let xs = Array.init 64 Fun.id in
  let out = Pool.parallel_map ~jobs:4 (fun i -> ignore (Sys.opaque_identity (sin (float_of_int i))); i * 2) xs in
  Alcotest.(check (array int)) "result intact" (Array.map (fun i -> i * 2) xs) out;
  let records = Pool.drain_stats () in
  Obs.disable ();
  (match records with
  | [ r ] ->
      Alcotest.(check int) "jobs recorded" 4 r.Pool.rjobs;
      Alcotest.(check int) "items recorded" 64 r.Pool.items;
      Alcotest.(check int) "slots partition the items" 64
        (Array.fold_left (fun acc (ls : Pool.lane_stats) -> acc + ls.Pool.slots) 0 r.Pool.lanes);
      Alcotest.(check bool) "done after submit" true (r.Pool.done_s >= r.Pool.submit_s);
      Array.iter
        (fun (ls : Pool.lane_stats) ->
          Alcotest.(check bool) "busy non-negative" true (ls.Pool.busy_s >= 0.0);
          Alcotest.(check int) "one span per slot" ls.Pool.slots
            (List.length ls.Pool.slot_spans))
        r.Pool.lanes
  | rs -> Alcotest.failf "expected 1 run record, got %d" (List.length rs));
  Obs.enable ();
  Obs.reset ();
  ignore (Pool.drain_stats ());
  (* Sequential fallback (jobs = 1) still records, as a 1-lane run. *)
  ignore (Pool.parallel_map ~jobs:1 (fun i -> i + 1) xs);
  let records = Pool.drain_stats () in
  Obs.disable ();
  Obs.reset ();
  match records with
  | [ r ] ->
      Alcotest.(check int) "seq run is one lane" 1 r.Pool.rjobs;
      Alcotest.(check int) "seq slots" 64 r.Pool.lanes.(0).Pool.slots
  | rs -> Alcotest.failf "expected 1 seq run record, got %d" (List.length rs)

let test_pool_disabled_records_nothing () =
  Obs.disable ();
  Obs.reset ();
  ignore (Pool.drain_stats ());
  ignore (Pool.parallel_map ~jobs:4 (fun i -> i + 1) (Array.init 32 Fun.id));
  Alcotest.(check int) "no records while disabled" 0 (List.length (Pool.drain_stats ()))

let test_pool_chrome_events () =
  let module Chrome_trace = Orianna_obs.Chrome_trace in
  let module Json = Orianna_obs.Json in
  Obs.set_clock (fun () -> Unix.gettimeofday ());
  Obs.enable ();
  Obs.reset ();
  ignore (Pool.drain_stats ());
  ignore (Pool.parallel_map ~jobs:2 (fun i -> i + 1) (Array.init 16 Fun.id));
  let records = Pool.drain_stats () in
  Obs.disable ();
  Obs.reset ();
  let events = Pool.chrome_events records in
  let parsed = Json.parse (Chrome_trace.to_string events) in
  match Json.member "traceEvents" parsed with
  | Some (Json.Arr evs) ->
      let pids =
        List.sort_uniq compare
          (List.filter_map
             (fun e -> match Json.member "pid" e with Some (Json.Num p) -> Some (int_of_float p) | _ -> None)
             evs)
      in
      (* one Perfetto process per lane, starting at the pool's pid base *)
      Alcotest.(check (list int)) "one pid per lane"
        [ Pool.chrome_pid_base; Pool.chrome_pid_base + 1 ]
        pids;
      let durations = List.filter (fun e -> Json.member "ph" e = Some (Json.Str "X")) evs in
      Alcotest.(check int) "one slice per slot" 16 (List.length durations)
  | _ -> Alcotest.fail "missing traceEvents"

let () =
  Alcotest.run "par"
    [
      ( "pool",
        [
          Alcotest.test_case "parallel_map bit-identical at jobs 1/2/4" `Quick
            test_parallel_map_identical;
          Alcotest.test_case "parallel_map preserves input order" `Quick test_parallel_map_order;
          Alcotest.test_case "first failing slot re-raised" `Quick test_exception_first_slot;
          Alcotest.test_case "map_reduce folds in input order" `Quick test_map_reduce_deterministic;
          Alcotest.test_case "nested parallel_map runs sequentially" `Quick
            test_nested_runs_sequentially;
          QCheck_alcotest.to_alcotest prop_chunk_ranges;
        ] );
      ( "rng",
        [
          Alcotest.test_case "split_n = repeated split" `Quick test_split_n_matches_split_loop;
        ] );
      ( "schedule",
        [
          QCheck_alcotest.to_alcotest prop_schedule_matches_seed_reference;
          Alcotest.test_case "shared prepared on pool lanes = fresh runs" `Quick
            test_shared_prepared_on_pool_lanes;
          Alcotest.test_case "generate identical at -j1 and -j4" `Quick
            test_generate_identical_across_jobs;
        ] );
      ( "sweeps",
        [
          Alcotest.test_case "campaign identical at -j1 and -j4" `Quick
            test_campaign_identical_across_jobs;
          Alcotest.test_case "DSE shared cache memoizes candidates" `Quick
            test_dse_shared_cache_memoizes;
        ] );
      ( "instrumentation",
        [
          Alcotest.test_case "run records account for every slot" `Quick test_pool_run_records;
          Alcotest.test_case "disabled registry records nothing" `Quick
            test_pool_disabled_records_nothing;
          Alcotest.test_case "chrome events: one track per lane" `Quick test_pool_chrome_events;
        ] );
      ( "obs",
        [
          Alcotest.test_case "counters exact across 4 domains" `Quick
            test_obs_counts_exact_across_domains;
        ] );
    ]
