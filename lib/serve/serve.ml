open Orianna_util
open Orianna_hw
open Orianna_sim
module App = Orianna_apps.App
module Compile = Orianna_compiler.Compile
module Obs = Orianna_obs.Obs
module Json = Orianna_obs.Json
module Chrome_trace = Orianna_obs.Chrome_trace

type config = {
  instances : int;
  masked : (int * Unit_model.unit_class) list;
  policy : Dispatch.policy;
  queue_capacity : int;
  max_batch : int;
  batch_overhead_s : float;
  miss_penalty_s : float;
  cache_capacity : int;
  budget : Resource.t;
  opt_level : int;
  chaos : Chaos.config option;
  max_retries : int;
  retry_backoff_s : float;
  hedge : bool;
  hedge_slack_s : float;
  heartbeat_interval_s : float;
  heartbeat_timeout_s : float;
  breaker_threshold : int;
  breaker_cooldown_s : float;
}

let default_config =
  {
    instances = 4;
    masked = [];
    policy = Dispatch.Edf;
    queue_capacity = 64;
    max_batch = 8;
    batch_overhead_s = 20e-6;
    miss_penalty_s = 2e-3;
    cache_capacity = 8;
    budget = Resource.zc706;
    opt_level = 1;
    chaos = None;
    max_retries = 2;
    retry_backoff_s = 100e-6;
    hedge = false;
    hedge_slack_s = 1e-3;
    heartbeat_interval_s = 250e-6;
    heartbeat_timeout_s = 1e-3;
    breaker_threshold = 3;
    breaker_cooldown_s = 1e-3;
  }

type rejection = Queue_full | Shed_lower_priority | Unservable | Failed_after_retries

let rejection_name = function
  | Queue_full -> "queue-full"
  | Shed_lower_priority -> "shed-lower-priority"
  | Unservable -> "unservable"
  | Failed_after_retries -> "failed-after-retries"

type completion = {
  request : Request.t;
  instance : int;
  batch : int;
  start_s : float;
  finish_s : float;
  cache_hit : bool;
  rerouted : bool;
  attempts : int;
  hedged : bool;
}

type batch = {
  bid : int;
  binstance : int;
  bapp : string;
  bsize : int;
  bstart_s : float;
  bfinish_s : float;
  bhit : bool;
  brerouted : bool;
  bfailed : bool;
}

type instance_report = {
  iidx : int;
  imasked : string option;
  iserved : int;
  ibatches : int;
  ibusy_s : float;
  iutil : float;
  idowntime_s : float;
  icrashes : int;
  ihangs : int;
  itransients : int;
  islowdowns : int;
  irestarts : int;
  ibreaker_opens : int;
  icold_batches : int;
}

type chaos_report = {
  crashes : int;
  hangs : int;
  transients : int;
  slowdowns : int;
  restarts : int;
  breaker_opens : int;
  cold_batches : int;
  retries : int;
  failed_after_retries : int;
  hedges_launched : int;
  hedges_cancelled : int;
  inflight_recovered : int;
  inflight_lost : int;
  availability : float;
  transitions : (float * int * string) list;
}

type report = {
  total : int;
  admitted : int;
  completed : int;
  rejections : (Request.t * rejection) list;
  completions : completion list;
  batches : batch list;
  makespan_s : float;
  throughput_rps : float;
  mean_latency_s : float;
  p50_ms : float;
  p95_ms : float;
  p99_ms : float;
  max_latency_ms : float;
  deadline_misses : int;
  deadline_miss_rate : float;
  queue_depth_max : int;
  queue_samples : (float * int) list;
  rerouted : int;
  cache : Cache.stats;
  fleet : instance_report list;
  per_app : (string * int * int) list;
  chaos : chaos_report option;
  sessions : Session.report option;
}

(* One queued copy of a request: its structural cache key (computed at
   admission), how many dispatch attempts this copy has consumed, the
   virtual time its retry backoff elapses, and whether it is a hedged
   duplicate of another live copy. *)
type queued = { req : Request.t; key : int32; attempts : int; eligible_s : float; dup : bool }

(* One request riding an in-flight batch, with its individual
   (staggered) finish time. *)
type flight_req = { fq : queued; ffinish_s : float }

(* A dispatched batch whose completions have not all committed yet.
   [fpending] is in finish order; commits pop the due prefix, an
   instance failure recovers whatever remains. *)
type flight = {
  fbid : int;
  finst : int;
  fapp : string;
  fsize : int;
  fstart_s : float;
  ffinish_last : float;
  fhit : bool;
  frerouted : bool;
  mutable fpending : flight_req list;
}

let compile_graphs ~budget ~opt_level graphs =
  let program = Compile.compile_application ~opt_level graphs in
  (* Same post-compile step as the compile/simulate/profile CLI
     paths, so the artifact matches its (structural key, opt_level)
     cache key. *)
  let program = Opt_loop.post_compile ~level:opt_level program in
  let prepared = Schedule.prepare program in
  let dse =
    Dse.optimize ~budget
      ~evaluate:(fun accel ->
        (Schedule.run_prepared ~accel ~policy:Schedule.Ooo_full prepared).Schedule.seconds)
      ()
  in
  (program, dse)

let compile_entry ~budget ~opt_level (req : Request.t) () =
  let app = App.find req.Request.app in
  compile_graphs ~budget ~opt_level (app.App.graphs (Rng.of_int req.Request.seed))

let run ?(config = default_config) ?sessions ~trace () =
  if config.queue_capacity <= 0 then invalid_arg "Serve.run: queue_capacity must be positive";
  if config.max_batch <= 0 then invalid_arg "Serve.run: max_batch must be positive";
  if config.max_retries < 0 then invalid_arg "Serve.run: max_retries must be non-negative";
  (* Mission ticks ride the same trace as generated solves; the stable
     sort below interleaves them by arrival. *)
  let trace =
    match sessions with None -> trace | Some s -> trace @ Session.mission_requests s
  in
  let trace =
    List.stable_sort
      (fun (a : Request.t) b -> compare (a.Request.arrival_s, a.Request.id) (b.Request.arrival_s, b.Request.id))
      trace
  in
  let arr = Array.of_list trace in
  let n = Array.length arr in
  let fleet = Dispatch.make_fleet ~instances:config.instances ~masked:config.masked in
  let fleet_arr = Dispatch.instances fleet in
  let cache = Cache.create ~capacity:config.cache_capacity in
  let ccfg = Option.value config.chaos ~default:Chaos.default in
  let sched =
    match config.chaos with
    | Some c when Chaos.enabled c -> Some (Chaos.make c ~instances:config.instances)
    | Some _ | None -> None
  in
  let nodes = Chaos.make_nodes config.instances in
  let clock = ref 0.0 in
  let ai = ref 0 in
  let queue = ref ([] : queued list) in
  let inflight = ref ([] : flight list) in
  let rejections = ref [] in
  let completions = ref [] in
  let batches = ref [] in
  let batch_counter = ref 0 in
  let queue_depth_max = ref 0 in
  let queue_samples = ref [] in
  let admitted = ref 0 in
  let retries_total = ref 0 in
  let hedges_launched = ref 0 in
  let hedges_cancelled = ref 0 in
  let transitions = ref [] in
  (* Copies of a request id still alive (queued or in flight); a
     terminal outcome is recorded exactly when the last copy dies. *)
  let live = Hashtbl.create (max 16 n) in
  let finished = Hashtbl.create (max 16 n) in
  (* Ids whose in-flight work was ever recovered from a failed
     instance: recovered-vs-lost accounting for the report. *)
  let touched = Hashtbl.create 16 in
  (* Keys whose compile happened but whose miss penalty has not yet
     been charged to a dispatched batch. *)
  let pending_penalty = Hashtbl.create 8 in
  let reject r why =
    rejections := (r, why) :: !rejections;
    Obs.count ("serve.rejected." ^ rejection_name why)
  in
  (* Drop one live copy; the last copy dying without a completion on
     record is the id's single structured terminal outcome. *)
  let fail_copy (r : Request.t) why =
    let id = r.Request.id in
    let l = (match Hashtbl.find_opt live id with Some l -> l | None -> 0) - 1 in
    Hashtbl.replace live id l;
    if l <= 0 && not (Hashtbl.mem finished id) then reject r why
  in
  let transition label idx = transitions := (!clock, idx, label) :: !transitions in
  let sample_queue () =
    let depth = List.length !queue in
    if depth > !queue_depth_max then queue_depth_max := depth;
    match !queue_samples with
    | (t, d) :: _ when t = !clock && d = depth ->
        (* Duplicate sample: the gauge already reads [depth], so skip
           the registry write (a sequenced shard-lock hit) too. *)
        ()
    | _ ->
        queue_samples := (!clock, depth) :: !queue_samples;
        Obs.set_gauge "serve.queue_depth" (float_of_int depth)
  in
  (* A Solve's key depends only on its app's template, never on the
     seed ({!Cache.structural_key} excludes values), so each app name is
     keyed once per run; an unknown app maps to [None]. *)
  let template_keys = Hashtbl.create 8 in
  let template_key (r : Request.t) =
    match Hashtbl.find_opt template_keys r.Request.app with
    | Some k -> k
    | None ->
        let k =
          match App.find r.Request.app with
          | exception Not_found -> None
          | app ->
              Obs.count "serve.template_keys";
              Some
                (Cache.structural_key ~opt_level:config.opt_level
                   (app.App.graphs (Rng.of_int r.Request.seed)))
        in
        Hashtbl.replace template_keys r.Request.app k;
        k
  in
  let admit (r : Request.t) =
    let key_opt =
      match r.Request.kind with
      | Request.Solve -> template_key r
      | Request.Tick _ -> (
          (* A tick without a session layer (or for an unknown session)
             has no program to run. *)
          match sessions with None -> None | Some s -> Session.key_of s r)
    in
    match key_opt with
    | None -> reject r Unservable
    | Some key ->
        let q = { req = r; key; attempts = 0; eligible_s = r.Request.arrival_s; dup = false } in
        if List.length !queue >= config.queue_capacity then begin
          (* Shed-on-overload: a strictly lower-priority queued request
             with the slackest deadline makes room; otherwise the
             arrival itself is turned away. *)
          let rank q = Request.priority_rank q.req.Request.priority in
          let victim =
            List.fold_left
              (fun acc cand ->
                if rank cand >= Request.priority_rank r.Request.priority then acc
                else
                  match acc with
                  | Some best
                    when (rank best, -.best.req.Request.deadline_s, -best.req.Request.id)
                         <= (rank cand, -.cand.req.Request.deadline_s, -cand.req.Request.id) ->
                      acc
                  | _ -> Some cand)
              None !queue
          in
          match victim with
          | Some v ->
              queue := List.filter (fun q -> q != v) !queue @ [ q ];
              admitted := !admitted + 1;
              Hashtbl.replace live r.Request.id 1;
              Obs.count "serve.admitted";
              fail_copy v.req Shed_lower_priority
          | None -> reject r Queue_full
        end
        else begin
          queue := !queue @ [ q ];
          admitted := !admitted + 1;
          Hashtbl.replace live r.Request.id 1;
          Obs.count "serve.admitted"
        end
  in
  let mk_batch (f : flight) ~failed ~finish_s =
    {
      bid = f.fbid;
      binstance = f.finst;
      bapp = f.fapp;
      bsize = f.fsize;
      bstart_s = f.fstart_s;
      bfinish_s = finish_s;
      bhit = f.fhit;
      brerouted = f.frerouted;
      bfailed = failed;
    }
  in
  (* Put a recovered copy back in the queue under the retry budget,
     with exponential backoff clamped to half the remaining deadline
     slack (waiting longer than the slack allows buys nothing).  A
     near-deadline retry may additionally launch one hedged duplicate:
     first completion wins, the loser is cancelled. *)
  let requeue (q : queued) =
    let attempts = q.attempts + 1 in
    if attempts > config.max_retries then fail_copy q.req Failed_after_retries
    else begin
      incr retries_total;
      let slack = Request.slack_s q.req ~now_s:!clock in
      let backoff =
        Float.min
          (config.retry_backoff_s *. float_of_int (1 lsl min 16 (attempts - 1)))
          (Float.max 0.0 (0.5 *. slack))
      in
      let q' = { q with attempts; eligible_s = !clock +. backoff } in
      queue := !queue @ [ q' ];
      if
        config.hedge && (not q.dup)
        && slack < config.hedge_slack_s
        && Hashtbl.find_opt live q.req.Request.id = Some 1
      then begin
        incr hedges_launched;
        Hashtbl.replace live q.req.Request.id 2;
        queue := !queue @ [ { q' with dup = true } ]
      end
    end
  in
  (* Fail-over: every batch still in flight on this instance dies; its
     uncommitted requests are recovered and re-dispatched elsewhere. *)
  let fail_node_flights idx =
    let mine, rest = List.partition (fun f -> f.finst = idx) !inflight in
    inflight := rest;
    List.iter
      (fun f ->
        let inst = fleet_arr.(idx) in
        let recov = f.fpending in
        f.fpending <- [];
        inst.Dispatch.served <- inst.Dispatch.served - List.length recov;
        inst.Dispatch.busy_total_s <-
          inst.Dispatch.busy_total_s -. Float.max 0.0 (f.ffinish_last -. !clock);
        batches := mk_batch f ~failed:true ~finish_s:!clock :: !batches;
        List.iter
          (fun fr ->
            Hashtbl.replace touched fr.fq.req.Request.id ();
            requeue fr.fq)
          recov)
      mine
  in
  (* A node just failed (crash, hang detection, or transient): trip the
     breaker, recover its in-flight work, and free its slot. *)
  let node_failure node =
    let idx = node.Chaos.nidx in
    fail_node_flights idx;
    if Chaos.breaker_failure node ~now_s:!clock ~threshold:config.breaker_threshold
         ~cooldown_s:config.breaker_cooldown_s
    then transition "breaker-open" idx;
    let inst = fleet_arr.(idx) in
    inst.Dispatch.busy_until_s <- Float.min inst.Dispatch.busy_until_s !clock
  in
  let schedule_restart node =
    match sched with
    | Some cs when ccfg.Chaos.restart ->
        node.Chaos.restart_at <- !clock +. Chaos.restart_latency_s cs node.Chaos.nidx
    | Some _ | None -> node.Chaos.dead_forever <- true
  in
  (* Commit every due completion (finish time reached, instance not
     hung), then finalize batches whose requests have all resolved.
     The first committed copy of an id wins; any other live copies are
     cancelled on the spot, so no id can complete twice. *)
  let commit_req (f : flight) (fr : flight_req) =
    let id = fr.fq.req.Request.id in
    if Hashtbl.mem finished id then incr hedges_cancelled
    else begin
      Hashtbl.replace finished id ();
      completions :=
        {
          request = fr.fq.req;
          instance = f.finst;
          batch = f.fbid;
          start_s = f.fstart_s;
          finish_s = fr.ffinish_s;
          cache_hit = f.fhit;
          rerouted = f.frerouted;
          attempts = fr.fq.attempts;
          hedged = fr.fq.dup;
        }
        :: !completions;
      Obs.count "serve.completed";
      Obs.observe "serve.latency_ms" ((fr.ffinish_s -. fr.fq.req.Request.arrival_s) *. 1e3);
      Obs.observe "serve.wait_ms" ((f.fstart_s -. fr.fq.req.Request.arrival_s) *. 1e3);
      if Hashtbl.find_opt live id <> Some 1 then begin
        (* Cancel the losing hedge copies: queued twins drop out, in-
           flight twins are removed from their batch's pending list. *)
        let dups, rest = List.partition (fun q -> q.req.Request.id = id) !queue in
        queue := rest;
        hedges_cancelled := !hedges_cancelled + List.length dups;
        List.iter
          (fun g ->
            let d, keep = List.partition (fun fr2 -> fr2.fq.req.Request.id = id) g.fpending in
            g.fpending <- keep;
            hedges_cancelled := !hedges_cancelled + List.length d)
          !inflight
      end;
      Hashtbl.replace live id 0
    end
  in
  let commit_due () =
    List.iter
      (fun f ->
        if nodes.(f.finst).Chaos.hung_since = None then begin
          let rec pop_due () =
            match f.fpending with
            | fr :: rest when fr.ffinish_s <= !clock ->
                f.fpending <- rest;
                commit_req f fr;
                pop_due ()
            | _ -> ()
          in
          pop_due ()
        end)
      !inflight;
    let resolved, active = List.partition (fun f -> f.fpending = []) !inflight in
    inflight := active;
    List.iter
      (fun f ->
        if Chaos.breaker_success nodes.(f.finst) then transition "breaker-close" f.finst;
        Obs.count "serve.batches";
        batches := mk_batch f ~failed:false ~finish_s:f.ffinish_last :: !batches)
      resolved
  in
  (* Node timers: heartbeat-miss (Up -> Suspect), heartbeat-timeout
     (hang detected -> Down, fail over, schedule restart), restart
     (Down -> Up with a cold compile cache). *)
  let process_timers_due () =
    Array.iter
      (fun node ->
        let idx = node.Chaos.nidx in
        if node.Chaos.suspect_at <= !clock then begin
          node.Chaos.suspect_at <- infinity;
          if node.Chaos.health = Chaos.Up then begin
            node.Chaos.health <- Chaos.Suspect;
            transition "suspect" idx
          end
        end;
        if node.Chaos.detect_at <= !clock then begin
          node.Chaos.detect_at <- infinity;
          if (not node.Chaos.dead_forever) && node.Chaos.health <> Chaos.Down then begin
            node.Chaos.health <- Chaos.Down;
            transition "down" idx;
            let from_s = match node.Chaos.hung_since with Some h -> h | None -> !clock in
            Chaos.begin_downtime node ~from_s;
            node_failure node;
            schedule_restart node
          end
        end;
        if node.Chaos.restart_at <= !clock then begin
          let t = node.Chaos.restart_at in
          node.Chaos.restart_at <- infinity;
          node.Chaos.health <- Chaos.Up;
          node.Chaos.hung_since <- None;
          node.Chaos.restarts <- node.Chaos.restarts + 1;
          Chaos.end_downtime node ~until_s:t;
          Hashtbl.reset node.Chaos.warm;
          transition "restart" idx
        end)
      nodes
  in
  let handle_chaos_event (ev : Chaos.event) =
    let node = nodes.(ev.Chaos.instance) in
    let idx = ev.Chaos.instance in
    (* Faults only land on healthy, non-hung nodes: a dead node cannot
       crash twice, and a hung one is already doomed. *)
    if node.Chaos.health = Chaos.Up && node.Chaos.hung_since = None
       && not node.Chaos.dead_forever
    then
      match ev.Chaos.kind with
      | Chaos.Crash ->
          node.Chaos.crashes <- node.Chaos.crashes + 1;
          node.Chaos.health <- Chaos.Down;
          transition "crash" idx;
          Chaos.begin_downtime node ~from_s:!clock;
          node_failure node;
          schedule_restart node
      | Chaos.Hang ->
          node.Chaos.hangs <- node.Chaos.hangs + 1;
          node.Chaos.hung_since <- Some !clock;
          node.Chaos.suspect_at <- !clock +. config.heartbeat_interval_s;
          node.Chaos.detect_at <- !clock +. config.heartbeat_timeout_s;
          transition "hang" idx
      | Chaos.Transient ->
          if List.exists (fun f -> f.finst = idx) !inflight then begin
            node.Chaos.transients <- node.Chaos.transients + 1;
            transition "transient" idx;
            node_failure node
          end
      | Chaos.Slowdown ->
          node.Chaos.slowdowns <- node.Chaos.slowdowns + 1;
          node.Chaos.slow_until <- !clock +. ccfg.Chaos.slowdown_duration_s;
          transition "slowdown" idx
  in
  let rec process_chaos_due () =
    match sched with
    | None -> ()
    | Some cs -> (
        match Chaos.peek cs with
        | Some ev when ev.Chaos.at_s <= !clock ->
            ignore (Chaos.pop cs);
            handle_chaos_event ev;
            process_chaos_due ()
        | Some _ | None -> ())
  in
  let dispatch_batch (head : queued) (hit : bool) (inst : Dispatch.instance)
      (per_req_s : float) (was_rerouted : bool) =
    let node = nodes.(inst.Dispatch.idx) in
    let batch_reqs, rest =
      Dispatch.take_batch ~max_batch:config.max_batch ~key:head.key
        ~keyof:(fun q -> q.key)
        ~idof:(fun q -> q.req.Request.id)
        ~ready:(fun q -> q.eligible_s <= !clock)
        !queue
    in
    queue := rest;
    ignore (Chaos.arm_probe node ~now_s:!clock);
    let penalty =
      if Hashtbl.mem pending_penalty head.key then begin
        Hashtbl.remove pending_penalty head.key;
        config.miss_penalty_s
      end
      else 0.0
    in
    (* A restarted instance lost its on-device program images: the
       first post-restart batch per program recompiles/reloads. *)
    let cold = node.Chaos.restarts > 0 && not (Hashtbl.mem node.Chaos.warm head.key) in
    if cold then node.Chaos.cold_batches <- node.Chaos.cold_batches + 1;
    Hashtbl.replace node.Chaos.warm head.key ();
    let per_req_s =
      if !clock < node.Chaos.slow_until then per_req_s *. ccfg.Chaos.slowdown_factor
      else per_req_s
    in
    let start = !clock in
    let overhead =
      config.batch_overhead_s +. penalty +. (if cold then ccfg.Chaos.cold_penalty_s else 0.0)
    in
    let bid = !batch_counter in
    incr batch_counter;
    let is_tick q = match q.req.Request.kind with Request.Tick _ -> true | Request.Solve -> false in
    let fpending =
      if List.exists is_tick batch_reqs then
        (* Tick service times are per-request (proportional to the
           session's affected re-elimination work), so finishes
           accumulate instead of the uniform stagger below. *)
        let at = ref (start +. overhead) in
        List.map
          (fun q ->
            let svc =
              match (q.req.Request.kind, sessions) with
              | Request.Tick _, Some s -> Session.execute s ~now_s:!clock ~base_s:per_req_s q.req
              | _ -> per_req_s
            in
            at := !at +. svc;
            { fq = q; ffinish_s = !at })
          batch_reqs
      else
        List.mapi
          (fun i q ->
            { fq = q; ffinish_s = start +. overhead +. (float_of_int (i + 1) *. per_req_s) })
          batch_reqs
    in
    let finish_last =
      match List.rev fpending with fr :: _ -> fr.ffinish_s | [] -> start
    in
    inst.Dispatch.busy_until_s <- finish_last;
    inst.Dispatch.busy_total_s <- inst.Dispatch.busy_total_s +. (finish_last -. start);
    inst.Dispatch.served <- inst.Dispatch.served + List.length batch_reqs;
    inst.Dispatch.batches <- inst.Dispatch.batches + 1;
    inflight :=
      !inflight
      @ [
          {
            fbid = bid;
            finst = inst.Dispatch.idx;
            fapp = head.req.Request.app;
            fsize = List.length batch_reqs;
            fstart_s = start;
            ffinish_last = finish_last;
            fhit = hit;
            frerouted = was_rerouted;
            fpending;
          };
        ]
  in
  let usable (inst : Dispatch.instance) = Chaos.routable nodes.(inst.Dispatch.idx) ~now_s:!clock in
  let alive (inst : Dispatch.instance) = not nodes.(inst.Dispatch.idx).Chaos.dead_forever in
  let try_dispatch () =
    if !queue = [] then false
    else begin
      let ordered = Dispatch.select config.policy !queue ~key:(fun q -> q.req) in
      let rec walk seen = function
        | [] -> false
        | (q : queued) :: rest when q.eligible_s > !clock -> walk seen rest
        | q :: rest when List.mem q.key seen -> walk seen rest
        | q :: rest -> (
            let hit, entry =
              Cache.find_or_add cache q.key (fun () ->
                  let p, d =
                    match (q.req.Request.kind, sessions) with
                    | Request.Tick { session; _ }, Some s ->
                        (* Ticks run the session's compiled template
                           program; every tick of every tenant on the
                           same stream shares this one artifact. *)
                        compile_graphs ~budget:config.budget ~opt_level:config.opt_level
                          (Session.template_graphs s ~session)
                    | _ ->
                        compile_entry ~budget:config.budget ~opt_level:config.opt_level q.req ()
                  in
                  Hashtbl.replace pending_penalty q.key ();
                  (p, d))
            in
            match Dispatch.choose_instance ~usable config.policy fleet ~now_s:!clock ~entry with
            | Some (inst, per_req_s, was_rerouted) ->
                dispatch_batch q hit inst per_req_s was_rerouted;
                true
            | None ->
                if Dispatch.can_any_serve ~alive fleet entry then walk (q.key :: seen) rest
                else begin
                  (* No instance that is still alive (or will ever come
                     back) can execute this program: structured
                     rejection instead of livelock, even when the last
                     capable instance died mid-run. *)
                  let doomed, rest_q = List.partition (fun c -> c.key = q.key) !queue in
                  queue := rest_q;
                  List.iter (fun c -> fail_copy c.req Unservable) doomed;
                  true
                end)
      in
      walk [] ordered
    end
  in
  let advance () =
    let best = ref infinity in
    let upd t = if t > !clock && t < !best then best := t in
    if !ai < n then upd arr.(!ai).Request.arrival_s;
    (* First uncommitted finish per live (non-hung) flight; a hung
       instance produces nothing until its heartbeat timeout fires. *)
    List.iter
      (fun f ->
        if nodes.(f.finst).Chaos.hung_since = None then
          match f.fpending with fr :: _ -> upd fr.ffinish_s | [] -> ())
      !inflight;
    Array.iter (fun (i : Dispatch.instance) -> upd i.Dispatch.busy_until_s) fleet_arr;
    List.iter (fun (q : queued) -> upd q.eligible_s) !queue;
    (match sched with
    | Some cs -> ( match Chaos.peek cs with Some ev -> upd ev.Chaos.at_s | None -> ())
    | None -> ());
    Array.iter
      (fun node ->
        upd node.Chaos.suspect_at;
        upd node.Chaos.detect_at;
        upd node.Chaos.restart_at;
        match node.Chaos.breaker with Chaos.Open_until t -> upd t | _ -> ())
      nodes;
    if !best < infinity then begin
      clock := !best;
      true
    end
    else false
  in
  while !ai < n || !queue <> [] || !inflight <> [] do
    while !ai < n && arr.(!ai).Request.arrival_s <= !clock do
      admit arr.(!ai);
      incr ai
    done;
    commit_due ();
    process_timers_due ();
    process_chaos_due ();
    sample_queue ();
    if not (try_dispatch ()) then
      if not (advance ()) then begin
        (* No future event can unblock the queue (defensive: reachable
           only if every instance is idle yet incapable, which
           [try_dispatch] already rejects). *)
        let stuck = !queue in
        queue := [];
        List.iter (fun q -> fail_copy q.req Unservable) stuck
      end
  done;
  commit_due ();
  sample_queue ();
  let completions =
    List.sort (fun a b -> compare a.request.Request.id b.request.Request.id) !completions
  in
  let batches = List.sort (fun a b -> compare a.bid b.bid) !batches in
  let rejections = List.rev !rejections in
  let completed = List.length completions in
  let latencies =
    Array.of_list (List.map (fun c -> c.finish_s -. c.request.Request.arrival_s) completions)
  in
  let makespan_s = List.fold_left (fun acc c -> Float.max acc c.finish_s) 0.0 completions in
  let deadline_misses =
    List.length (List.filter (fun c -> c.finish_s > c.request.Request.deadline_s) completions)
  in
  (* Single source of truth for reroute / deadline-miss telemetry: both
     are derived from the report data and mirrored into Obs once, so
     the counter and the report field cannot drift. *)
  let rerouted_total = List.length (List.filter (fun b -> b.brerouted) batches) in
  let mirror name v = if v > 0 then Obs.count ~n:v name in
  mirror "serve.rerouted" rerouted_total;
  mirror "serve.deadline_miss" deadline_misses;
  (* Latency percentiles go through the shared log-bucketed histogram
     (one quantile implementation repo-wide); error vs the exact sorted
     percentile is bounded by one bucket width. *)
  let lat_hist =
    let h = Obs.Hist.create () in
    Array.iter (fun l -> Obs.Hist.add h (l *. 1e3)) latencies;
    Obs.snapshot_hist h
  in
  let pctl p = if Array.length latencies = 0 then 0.0 else Obs.quantile lat_hist p in
  let per_app =
    List.fold_left
      (fun acc c ->
        let app = c.request.Request.app in
        let done_, miss = try List.assoc app acc with Not_found -> (0, 0) in
        (app, (done_ + 1, miss + if c.finish_s > c.request.Request.deadline_s then 1 else 0))
        :: List.remove_assoc app acc)
      [] completions
    |> List.map (fun (app, (d, m)) -> (app, d, m))
    |> List.sort compare
  in
  let sum f = Array.fold_left (fun acc node -> acc + f node) 0 nodes in
  let chaos_rep =
    match config.chaos with
    | None -> None
    | Some _ ->
        let failed_after_retries =
          List.length (List.filter (fun (_, w) -> w = Failed_after_retries) rejections)
        in
        let inflight_recovered =
          Hashtbl.fold (fun id () acc -> if Hashtbl.mem finished id then acc + 1 else acc) touched 0
        in
        let inflight_lost = Hashtbl.length touched - inflight_recovered in
        let availability =
          if makespan_s <= 0.0 then 1.0
          else
            let down =
              Array.fold_left
                (fun acc node -> acc +. Chaos.downtime_before node ~horizon_s:makespan_s)
                0.0 nodes
            in
            Float.max 0.0 (1.0 -. (down /. (float_of_int config.instances *. makespan_s)))
        in
        let c =
          {
            crashes = sum (fun nd -> nd.Chaos.crashes);
            hangs = sum (fun nd -> nd.Chaos.hangs);
            transients = sum (fun nd -> nd.Chaos.transients);
            slowdowns = sum (fun nd -> nd.Chaos.slowdowns);
            restarts = sum (fun nd -> nd.Chaos.restarts);
            breaker_opens = sum (fun nd -> nd.Chaos.breaker_opens);
            cold_batches = sum (fun nd -> nd.Chaos.cold_batches);
            retries = !retries_total;
            failed_after_retries;
            hedges_launched = !hedges_launched;
            hedges_cancelled = !hedges_cancelled;
            inflight_recovered;
            inflight_lost;
            availability;
            transitions = List.rev !transitions;
          }
        in
        mirror "serve.chaos.crash" c.crashes;
        mirror "serve.chaos.hang" c.hangs;
        mirror "serve.chaos.transient" c.transients;
        mirror "serve.chaos.slowdown" c.slowdowns;
        mirror "serve.chaos.restart" c.restarts;
        mirror "serve.chaos.cold" c.cold_batches;
        mirror "serve.retry.scheduled" c.retries;
        mirror "serve.retry.exhausted" c.failed_after_retries;
        mirror "serve.breaker.open" c.breaker_opens;
        mirror "serve.hedge.launched" c.hedges_launched;
        mirror "serve.hedge.cancelled" c.hedges_cancelled;
        Obs.set_gauge "serve.availability" c.availability;
        Some c
  in
  let report =
    {
      total = n;
      admitted = !admitted;
      completed;
      rejections;
      completions;
      batches;
      makespan_s;
      throughput_rps = (if makespan_s > 0.0 then float_of_int completed /. makespan_s else 0.0);
      mean_latency_s = Stats.mean latencies;
      p50_ms = pctl 50.0;
      p95_ms = pctl 95.0;
      p99_ms = pctl 99.0;
      max_latency_ms = (if Array.length latencies = 0 then 0.0 else Stats.max latencies *. 1e3);
      deadline_misses;
      deadline_miss_rate =
        (if completed = 0 then 0.0 else float_of_int deadline_misses /. float_of_int completed);
      queue_depth_max = !queue_depth_max;
      queue_samples = List.rev !queue_samples;
      rerouted = rerouted_total;
      cache = Cache.stats cache;
      fleet =
        Array.to_list fleet_arr
        |> List.map (fun (i : Dispatch.instance) ->
               let node = nodes.(i.Dispatch.idx) in
               {
                 iidx = i.Dispatch.idx;
                 imasked = Option.map Unit_model.class_name i.Dispatch.masked;
                 iserved = i.Dispatch.served;
                 ibatches = i.Dispatch.batches;
                 ibusy_s = i.Dispatch.busy_total_s;
                 iutil =
                   (if makespan_s > 0.0 then i.Dispatch.busy_total_s /. makespan_s else 0.0);
                 idowntime_s =
                   (if makespan_s > 0.0 then Chaos.downtime_before node ~horizon_s:makespan_s
                    else 0.0);
                 icrashes = node.Chaos.crashes;
                 ihangs = node.Chaos.hangs;
                 itransients = node.Chaos.transients;
                 islowdowns = node.Chaos.slowdowns;
                 irestarts = node.Chaos.restarts;
                 ibreaker_opens = node.Chaos.breaker_opens;
                 icold_batches = node.Chaos.cold_batches;
               });
      per_app;
      chaos = chaos_rep;
      sessions = Option.map Session.report sessions;
    }
  in
  Obs.set_gauge "serve.deadline_miss_rate" report.deadline_miss_rate;
  Obs.set_gauge "serve.cache.hit_rate" (Cache.hit_rate report.cache);
  Obs.set_gauge "serve.throughput_rps" report.throughput_rps;
  report

(* ------------------------------------------------------------------ *)
(* Exporters                                                           *)

let report_json r =
  let cache = r.cache in
  let chaos_fields =
    match r.chaos with
    | None -> []
    | Some c ->
        [
          ( "chaos",
            Json.Obj
              [
                ("availability", Json.Num c.availability);
                ("crashes", Json.int c.crashes);
                ("hangs", Json.int c.hangs);
                ("transients", Json.int c.transients);
                ("slowdowns", Json.int c.slowdowns);
                ("restarts", Json.int c.restarts);
                ("breaker_opens", Json.int c.breaker_opens);
                ("cold_batches", Json.int c.cold_batches);
                ("retries", Json.int c.retries);
                ("failed_after_retries", Json.int c.failed_after_retries);
                ("hedges_launched", Json.int c.hedges_launched);
                ("hedges_cancelled", Json.int c.hedges_cancelled);
                ("inflight_recovered", Json.int c.inflight_recovered);
                ("inflight_lost", Json.int c.inflight_lost);
                ("transitions", Json.int (List.length c.transitions));
              ] );
        ]
  in
  let session_fields =
    match r.sessions with
    | None -> []
    | Some s -> [ ("sessions", Session.report_json s) ]
  in
  Json.Obj
    ([
       ("total", Json.int r.total);
       ("admitted", Json.int r.admitted);
       ("completed", Json.int r.completed);
       ( "rejected",
         Json.Obj
           (List.map
              (fun why ->
                ( rejection_name why,
                  Json.int (List.length (List.filter (fun (_, w) -> w = why) r.rejections)) ))
              [ Queue_full; Shed_lower_priority; Unservable; Failed_after_retries ]) );
       ("makespan_s", Json.Num r.makespan_s);
       ("throughput_rps", Json.Num r.throughput_rps);
       ( "latency_ms",
         Json.Obj
           [
             ("mean", Json.Num (r.mean_latency_s *. 1e3));
             ("p50", Json.Num r.p50_ms);
             ("p95", Json.Num r.p95_ms);
             ("p99", Json.Num r.p99_ms);
             ("max", Json.Num r.max_latency_ms);
           ] );
       ("deadline_misses", Json.int r.deadline_misses);
       ("deadline_miss_rate", Json.Num r.deadline_miss_rate);
       ("queue_depth_max", Json.int r.queue_depth_max);
       ("rerouted_batches", Json.int r.rerouted);
       ("batches", Json.int (List.length r.batches));
       ( "cache",
         Json.Obj
           [
             ("capacity", Json.int cache.Cache.capacity);
             ("entries", Json.int cache.Cache.entries);
             ("hits", Json.int cache.Cache.hits);
             ("misses", Json.int cache.Cache.misses);
             ("evictions", Json.int cache.Cache.evictions);
             ("hit_rate", Json.Num (Cache.hit_rate cache));
           ] );
       ( "fleet",
         Json.Arr
           (List.map
              (fun i ->
                Json.Obj
                  ([
                     ("instance", Json.int i.iidx);
                     ( "masked",
                       match i.imasked with None -> Json.Null | Some c -> Json.Str c );
                     ("served", Json.int i.iserved);
                     ("batches", Json.int i.ibatches);
                     ("busy_s", Json.Num i.ibusy_s);
                     ("utilization", Json.Num i.iutil);
                   ]
                  @
                  if r.chaos = None then []
                  else
                    [
                      ("downtime_s", Json.Num i.idowntime_s);
                      ("crashes", Json.int i.icrashes);
                      ("hangs", Json.int i.ihangs);
                      ("transients", Json.int i.itransients);
                      ("slowdowns", Json.int i.islowdowns);
                      ("restarts", Json.int i.irestarts);
                      ("breaker_opens", Json.int i.ibreaker_opens);
                      ("cold_batches", Json.int i.icold_batches);
                    ]))
              r.fleet) );
       ( "per_app",
         Json.Obj
           (List.map
              (fun (app, done_, miss) ->
                ( app,
                  Json.Obj
                    [ ("completed", Json.int done_); ("deadline_misses", Json.int miss) ] ))
              r.per_app) );
     ]
    @ chaos_fields @ session_fields)

let table r =
  let t = Texttable.create ~title:"Serving campaign" ~headers:[ "metric"; "value" ] in
  let add k v = Texttable.add_row t [ k; v ] in
  add "requests" (string_of_int r.total);
  add "admitted" (string_of_int r.admitted);
  add "completed" (string_of_int r.completed);
  add "rejected" (string_of_int (List.length r.rejections));
  add "makespan" (Printf.sprintf "%.3f ms" (r.makespan_s *. 1e3));
  add "throughput" (Printf.sprintf "%.0f req/s" r.throughput_rps);
  add "latency mean/p50/p95/p99"
    (Printf.sprintf "%.3f / %.3f / %.3f / %.3f ms" (r.mean_latency_s *. 1e3) r.p50_ms r.p95_ms
       r.p99_ms);
  add "deadline misses"
    (Printf.sprintf "%d (%.1f%%)" r.deadline_misses (100.0 *. r.deadline_miss_rate));
  add "queue depth max" (string_of_int r.queue_depth_max);
  add "batches" (string_of_int (List.length r.batches));
  add "rerouted batches" (string_of_int r.rerouted);
  add "cache hit rate"
    (Printf.sprintf "%.1f%% (%d hits, %d misses, %d evictions)"
       (100.0 *. Cache.hit_rate r.cache)
       r.cache.Cache.hits r.cache.Cache.misses r.cache.Cache.evictions);
  (match r.chaos with
  | None -> ()
  | Some c ->
      add "availability" (Printf.sprintf "%.3f%%" (100.0 *. c.availability));
      add "chaos events"
        (Printf.sprintf "%d crash, %d hang, %d transient, %d slowdown" c.crashes c.hangs
           c.transients c.slowdowns);
      add "restarts / breaker opens / cold"
        (Printf.sprintf "%d / %d / %d" c.restarts c.breaker_opens c.cold_batches);
      add "retries / failed-after-retries"
        (Printf.sprintf "%d / %d" c.retries c.failed_after_retries);
      add "hedges launched / cancelled"
        (Printf.sprintf "%d / %d" c.hedges_launched c.hedges_cancelled);
      add "in-flight recovered / lost"
        (Printf.sprintf "%d / %d" c.inflight_recovered c.inflight_lost));
  let f =
    Texttable.create ~title:"Fleet"
      ~headers:[ "instance"; "masked"; "served"; "batches"; "busy"; "util"; "down"; "faults" ]
  in
  List.iter
    (fun i ->
      Texttable.add_row f
        [
          string_of_int i.iidx;
          (match i.imasked with None -> "-" | Some c -> c);
          string_of_int i.iserved;
          string_of_int i.ibatches;
          Printf.sprintf "%.3f ms" (i.ibusy_s *. 1e3);
          Printf.sprintf "%.0f%%" (100.0 *. i.iutil);
          Printf.sprintf "%.3f ms" (i.idowntime_s *. 1e3);
          string_of_int (i.icrashes + i.ihangs + i.itransients + i.islowdowns);
        ])
    r.fleet;
  let base = Texttable.render t ^ "\n" ^ Texttable.render f in
  match r.sessions with None -> base | Some s -> base ^ "\n" ^ Session.table s

let fleet_pid = 2

let chrome_events r =
  let header =
    Chrome_trace.Process_name { pid = fleet_pid; name = "serving fleet" }
    :: List.map
         (fun i ->
           Chrome_trace.Thread_name
             {
               pid = fleet_pid;
               tid = i.iidx;
               name =
                 (match i.imasked with
                 | None -> Printf.sprintf "instance %d" i.iidx
                 | Some c -> Printf.sprintf "instance %d (degraded: %s)" i.iidx c);
             })
         r.fleet
  in
  let slices =
    List.map
      (fun b ->
        Chrome_trace.Duration
          {
            name =
              (if b.bfailed then Printf.sprintf "%s x%d (failed)" b.bapp b.bsize
               else Printf.sprintf "%s x%d" b.bapp b.bsize);
            cat = "serve";
            pid = fleet_pid;
            tid = b.binstance;
            ts_us = b.bstart_s *. 1e6;
            dur_us = (b.bfinish_s -. b.bstart_s) *. 1e6;
            args =
              [
                ("batch", Json.int b.bid);
                ("cache_hit", Json.Bool b.bhit);
                ("rerouted", Json.Bool b.brerouted);
                ("failed", Json.Bool b.bfailed);
              ];
          })
      r.batches
  in
  let queue_series =
    List.map
      (fun (t, d) ->
        Chrome_trace.Counter
          {
            name = "serve.queue_depth";
            pid = fleet_pid;
            ts_us = t *. 1e6;
            series = [ ("depth", float_of_int d) ];
          })
      r.queue_samples
  in
  let misses =
    List.filter (fun c -> c.finish_s > c.request.Request.deadline_s) r.completions
    |> List.sort (fun a b -> compare a.finish_s b.finish_s)
  in
  let miss_series =
    List.mapi
      (fun i c ->
        Chrome_trace.Counter
          {
            name = "serve.deadline_misses";
            pid = fleet_pid;
            ts_us = c.finish_s *. 1e6;
            series = [ ("missed", float_of_int (i + 1)) ];
          })
      misses
  in
  let miss_instants =
    List.map
      (fun c ->
        Chrome_trace.Instant
          {
            name = Printf.sprintf "deadline-miss req#%d" c.request.Request.id;
            cat = "serve";
            pid = fleet_pid;
            tid = c.instance;
            ts_us = c.finish_s *. 1e6;
          })
      misses
  in
  let chaos_instants =
    match r.chaos with
    | None -> []
    | Some c ->
        List.map
          (fun (t, idx, label) ->
            Chrome_trace.Instant
              { name = label; cat = "chaos"; pid = fleet_pid; tid = idx; ts_us = t *. 1e6 })
          c.transitions
  in
  header @ slices @ queue_series @ miss_series @ miss_instants @ chaos_instants
