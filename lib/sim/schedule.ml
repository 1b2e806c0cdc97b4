open Orianna_isa
open Orianna_hw
module Obs = Orianna_obs.Obs

type policy = In_order | Ooo_fine | Ooo_full

exception
  Deadlock of {
    cycle : int;
    stuck : int list;
    occupancy : (Unit_model.unit_class * int list) list;
  }

let policy_name = function
  | In_order -> "in-order"
  | Ooo_fine -> "ooo-fine"
  | Ooo_full -> "ooo-full"

type result = {
  cycles : int;
  seconds : float;
  dynamic_energy_j : float;
  static_energy_j : float;
  energy_j : float;
  phase_busy : (Instr.phase * int) list;
  unit_busy : (Unit_model.unit_class * int) list;
  utilization : (Unit_model.unit_class * float) list;
  instructions : int;
  starts : int array;
  finishes : int array;
  issue_base : int array;
  stall_operand_cycles : int;
  stall_structural_cycles : int;
}

let class_index cls =
  let rec find i = function
    | [] -> assert false
    | c :: rest -> if c = cls then i else find (i + 1) rest
  in
  find 0 Unit_model.all_classes

let num_classes = List.length Unit_model.all_classes
let classes_arr = Array.of_list Unit_model.all_classes

let phases = [ Instr.Construct; Instr.Decompose; Instr.Backsub ]
let phase_index = function Instr.Construct -> 0 | Instr.Decompose -> 1 | Instr.Backsub -> 2

type priority_policy = Critical_path | Fifo

let imax (a : int) b = if a > b then a else b

(* Dependency edges in CSR form: the children of [s] are
   [child_ids.(child_start.(s)) .. child_ids.(child_start.(s + 1) - 1)]
   in descending id order — the order the seed scheduler's
   prepend-then-iterate child lists visited them, which the heap
   tie-breaks depend on.  [indeg] counts the same edges (a source named
   twice is two edges, as before). *)
type graph = { child_start : int array; child_ids : int array; indeg : int array }

let graph_of (instrs : Instr.t array) ~keep =
  let n = Array.length instrs in
  let child_start = Array.make (n + 1) 0 and indeg = Array.make n 0 in
  Array.iteri
    (fun id (ins : Instr.t) ->
      Array.iter
        (fun s ->
          if keep s id then begin
            child_start.(s + 1) <- child_start.(s + 1) + 1;
            indeg.(id) <- indeg.(id) + 1
          end)
        ins.Instr.srcs)
    instrs;
  for s = 0 to n - 1 do
    child_start.(s + 1) <- child_start.(s + 1) + child_start.(s)
  done;
  let fill = Array.sub child_start 0 n in
  let child_ids = Array.make child_start.(n) 0 in
  for id = n - 1 downto 0 do
    Array.iter
      (fun s ->
        if keep s id then begin
          child_ids.(fill.(s)) <- id;
          fill.(s) <- fill.(s) + 1
        end)
      instrs.(id).Instr.srcs
  done;
  { child_start; child_ids; indeg }

(* Everything a schedule needs that depends on the accelerator only
   through [qr_rotators]: unit latencies, the ready-queue keys of
   critical-path priority (longest latency-weighted path to a sink,
   negated so a min-heap pops the highest), and busy cycles per unit
   class and per phase. *)
type timing = {
  latency : int array;
  cp_key : int array;
  class_busy : int array;
  unit_busy : (Unit_model.unit_class * int) list;
  phase_busy : (Instr.phase * int) list;
}

type prepared = {
  program : Program.t;
  cls_of : int array;  (** dense unit-class index per instruction *)
  class_off : int array;
      (** [num_classes + 1] prefix sums of instructions per class: each
          class's heap region in the scratch arrays *)
  all_ids : int array;  (** [0 .. n-1]: [Ooo_full]'s one partition, and the [Fifo] key *)
  full : graph;  (** every edge: [Ooo_full] *)
  fine : graph;  (** intra-partition edges only: [Ooo_fine] *)
  partitions : int array array;
      (** [Ooo_fine]'s algorithm partitions in first-appearance order,
          ids ascending *)
  dynamic_energy_j : float;
  timings : (int * timing) list Atomic.t;  (** by [qr_rotators], filled lazily *)
}

let prepare (p : Program.t) =
  let instrs = p.Program.instrs in
  let n = Array.length instrs in
  let cls_of =
    Array.map (fun (ins : Instr.t) -> class_index (Unit_model.class_of_op ins.Instr.op)) instrs
  in
  let class_off = Array.make (num_classes + 1) 0 in
  Array.iter (fun c -> class_off.(c + 1) <- class_off.(c + 1) + 1) cls_of;
  for c = 0 to num_classes - 1 do
    class_off.(c + 1) <- class_off.(c + 1) + class_off.(c)
  done;
  (* Partition by algorithm in first-appearance order, one pass over
     the stream. *)
  let part_of = Array.make n 0 in
  let parts = Hashtbl.create 8 in
  Array.iter
    (fun (i : Instr.t) ->
      let k =
        match Hashtbl.find_opt parts i.Instr.algo with
        | Some k -> k
        | None ->
            let k = Hashtbl.length parts in
            Hashtbl.add parts i.Instr.algo k;
            k
      in
      part_of.(i.Instr.id) <- k)
    instrs;
  let sizes = Array.make (Hashtbl.length parts) 0 in
  Array.iter (fun k -> sizes.(k) <- sizes.(k) + 1) part_of;
  let partitions = Array.map (fun sz -> Array.make sz 0) sizes in
  let fill = Array.make (Array.length sizes) 0 in
  Array.iteri
    (fun id k ->
      partitions.(k).(fill.(k)) <- id;
      fill.(k) <- fill.(k) + 1)
    part_of;
  let full = graph_of instrs ~keep:(fun _ _ -> true) in
  let fine =
    if Array.length partitions <= 1 then full
    else graph_of instrs ~keep:(fun s id -> part_of.(s) = part_of.(id))
  in
  (* Dynamic energy never reads the accelerator; summed in program
     order so the float is the per-run sum it replaces. *)
  let src_shape id = (instrs.(id).Instr.rows, instrs.(id).Instr.cols) in
  let dynamic_nj =
    Array.fold_left
      (fun acc (ins : Instr.t) ->
        acc +. Unit_model.dynamic_energy_nj classes_arr.(cls_of.(ins.Instr.id)) ins ~src_shape)
      0.0 instrs
  in
  {
    program = p;
    cls_of;
    class_off;
    all_ids = Array.init n Fun.id;
    full;
    fine;
    partitions;
    dynamic_energy_j = dynamic_nj *. 1e-9;
    timings = Atomic.make [];
  }

let timing_of prep latency =
  let instrs = prep.program.Program.instrs in
  let n = Array.length instrs in
  let prio = Array.make n 0 in
  for i = n - 1 downto 0 do
    prio.(i) <- imax prio.(i) latency.(i);
    Array.iter (fun s -> prio.(s) <- imax prio.(s) (prio.(i) + latency.(s))) instrs.(i).Instr.srcs
  done;
  let class_busy = Array.make num_classes 0 and phase_busy = Array.make (List.length phases) 0 in
  let phase_seen = Array.make (List.length phases) false in
  Array.iteri
    (fun id (ins : Instr.t) ->
      let c = prep.cls_of.(id) and ph = phase_index ins.Instr.phase in
      class_busy.(c) <- class_busy.(c) + latency.(id);
      phase_busy.(ph) <- phase_busy.(ph) + latency.(id);
      phase_seen.(ph) <- true)
    instrs;
  (* Only keys some instruction uses, in declaration (= sorted) order. *)
  let present ~seen keys busy =
    List.filteri (fun i _ -> seen i) (List.mapi (fun i k -> (k, busy.(i))) keys)
  in
  {
    latency;
    cp_key = Array.map (fun p -> -p) prio;
    class_busy;
    unit_busy =
      present
        ~seen:(fun c -> prep.class_off.(c + 1) > prep.class_off.(c))
        Unit_model.all_classes class_busy;
    phase_busy = present ~seen:(fun ph -> phase_seen.(ph)) phases phase_busy;
  }

let nominal_latencies (p : Program.t) ~qr_rotators =
  let instrs = p.Program.instrs in
  let src_shape id = (instrs.(id).Instr.rows, instrs.(id).Instr.cols) in
  Array.map
    (fun (ins : Instr.t) ->
      Unit_model.latency (Unit_model.class_of_op ins.Instr.op) ~qr_rotators ins ~src_shape)
    instrs

(* Pool lanes evaluate DSE candidates on one shared [prepared]: a
   missing width is computed outside the lock-free list and published
   by CAS; a lost race retries and finds the winner's (identical)
   entry. *)
let rec nominal_timing prep ~qr_rotators =
  let known = Atomic.get prep.timings in
  match List.assoc_opt qr_rotators known with
  | Some t -> t
  | None ->
      let t = timing_of prep (nominal_latencies prep.program ~qr_rotators) in
      if Atomic.compare_and_set prep.timings known ((qr_rotators, t) :: known) then t
      else nominal_timing prep ~qr_rotators

(* Per-domain scratch for the event loop, grown to the largest program
   seen on the domain and reused by every later run there: dependency
   counters, operand-ready times, and both per-class heaps as parallel
   key/id arrays (class [c] owns [class_off.(c) .. class_off.(c+1) - 1],
   its instruction count, so no heap ever grows). *)
type scratch = {
  indeg : int array;
  ready_dep_time : int array;
  akey : int array;
  aid : int array;
  alen : int array;
  rkey : int array;
  rid : int array;
  rlen : int array;
  mutable peak : int;  (** deepest summed ready queue of the run *)
}

let make_scratch n =
  {
    indeg = Array.make n 0;
    ready_dep_time = Array.make n 0;
    akey = Array.make n 0;
    aid = Array.make n 0;
    alen = Array.make num_classes 0;
    rkey = Array.make n 0;
    rid = Array.make n 0;
    rlen = Array.make num_classes 0;
    peak = 0;
  }

let scratch_key = Domain.DLS.new_key (fun () -> make_scratch 0)

let scratch_for n =
  let s = Domain.DLS.get scratch_key in
  if Array.length s.indeg >= n then s
  else begin
    let s = make_scratch n in
    Domain.DLS.set scratch_key s;
    s
  end

(* Int-keyed binary min-heaps with exactly [Orianna_util.Heap]'s sift
   logic (strict [<], left child tried before right), written with a
   hole instead of swaps: equal keys leave the heap in the same shape,
   so pops come out in the seed scheduler's order. *)
let heap_push (keys : int array) (ids : int array) len off c key id =
  let base = off.(c) in
  let i = ref len.(c) in
  len.(c) <- !i + 1;
  let continue_ = ref true in
  while !continue_ && !i > 0 do
    let parent = (!i - 1) / 2 in
    let pk = keys.(base + parent) in
    if key < pk then begin
      keys.(base + !i) <- pk;
      ids.(base + !i) <- ids.(base + parent);
      i := parent
    end
    else continue_ := false
  done;
  keys.(base + !i) <- key;
  ids.(base + !i) <- id

(* Remove the minimum of class [c]'s heap and return its id. *)
let heap_pop (keys : int array) (ids : int array) len off c =
  let base = off.(c) in
  let top = ids.(base) in
  let n = len.(c) - 1 in
  len.(c) <- n;
  if n > 0 then begin
    let key = keys.(base + n) and id = ids.(base + n) in
    let i = ref 0 and continue_ = ref true in
    while !continue_ do
      let l = (2 * !i) + 1 in
      let r = l + 1 in
      let smallest = ref !i and sk = ref key in
      if l < n && keys.(base + l) < !sk then begin
        smallest := l;
        sk := keys.(base + l)
      end;
      if r < n && keys.(base + r) < !sk then begin
        smallest := r;
        sk := keys.(base + r)
      end;
      if !smallest = !i then continue_ := false
      else begin
        keys.(base + !i) <- !sk;
        ids.(base + !i) <- ids.(base + !smallest);
        i := !smallest
      end
    done;
    keys.(base + !i) <- key;
    ids.(base + !i) <- id
  end;
  top

(* Dataflow (OoO) list scheduling of the instruction subset [ids]
   (ascending), starting no earlier than [t0], over the edges of [g].
   Unit instances are [free.(foff.(c)) .. free.(foff.(c+1) - 1)],
   their free-at cycles.  Returns the subset makespan.  Per class,
   arrivals are ordered by ready time and the ready queue by [key];
   roots are pushed in ids order and children in CSR order, the push
   orders the bit-identical contract with the seed scheduler rests
   on. *)
let schedule_ooo prep (g : graph) sc ~latency ~(key : int array) ~free ~foff ~starts ~finishes
    ~ids ~t0 ~telemetry =
  let cls_of = prep.cls_of and off = prep.class_off in
  let { indeg; ready_dep_time; akey; aid; alen; rkey; rid; rlen; _ } = sc in
  Array.iter
    (fun id ->
      indeg.(id) <- g.indeg.(id);
      ready_dep_time.(id) <- t0)
    ids;
  Array.fill alen 0 num_classes 0;
  Array.fill rlen 0 num_classes 0;
  Array.fill free 0 (Array.length free) t0;
  Array.iter (fun id -> if indeg.(id) = 0 then heap_push akey aid alen off cls_of.(id) t0 id) ids;
  let remaining = ref (Array.length ids) in
  let t = ref t0 in
  let makespan = ref t0 in
  while !remaining > 0 do
    (* Promote arrivals whose time has come. *)
    for c = 0 to num_classes - 1 do
      while alen.(c) > 0 && akey.(off.(c)) <= !t do
        let id = heap_pop akey aid alen off c in
        heap_push rkey rid rlen off c key.(id) id
      done
    done;
    if telemetry then begin
      let depth = ref 0 in
      for c = 0 to num_classes - 1 do
        depth := !depth + rlen.(c)
      done;
      if !depth > sc.peak then sc.peak <- !depth
    end;
    (* Greedily fill free unit instances with the highest-priority
       ready instruction of their class: the earliest-freed idle
       instance, lowest index on ties. *)
    let scheduled_any = ref false in
    for c = 0 to num_classes - 1 do
      let continue_ = ref true in
      while !continue_ && rlen.(c) > 0 do
        let best = ref (-1) in
        for k = foff.(c) to foff.(c + 1) - 1 do
          let ft = free.(k) in
          if ft <= !t && (!best < 0 || ft < free.(!best)) then best := k
        done;
        if !best < 0 then continue_ := false
        else begin
          let id = heap_pop rkey rid rlen off c in
          let start = imax !t ready_dep_time.(id) in
          let finish = start + latency.(id) in
          starts.(id) <- start;
          finishes.(id) <- finish;
          free.(!best) <- finish;
          if finish > !makespan then makespan := finish;
          decr remaining;
          scheduled_any := true;
          for k = g.child_start.(id) to g.child_start.(id + 1) - 1 do
            let child = g.child_ids.(k) in
            let d = indeg.(child) - 1 in
            indeg.(child) <- d;
            if finish > ready_dep_time.(child) then ready_dep_time.(child) <- finish;
            if d = 0 then heap_push akey aid alen off cls_of.(child) (imax finish t0) child
          done
        end
      done
    done;
    if !remaining > 0 && not !scheduled_any then begin
      (* Advance time to the next event: an arrival or a unit free. *)
      let next = ref max_int in
      for c = 0 to num_classes - 1 do
        if alen.(c) > 0 && akey.(off.(c)) > !t && akey.(off.(c)) < !next then
          next := akey.(off.(c));
        if rlen.(c) > 0 then
          for k = foff.(c) to foff.(c + 1) - 1 do
            if free.(k) > !t && free.(k) < !next then next := free.(k)
          done
      done;
      if !next = max_int then begin
        (* Everything ready but no instance ever frees — e.g. a class
           needed by a pending instruction has zero live instances.
           Report which instructions are stuck and what every unit
           instance is doing so campaign logs stay actionable. *)
        let stuck = ref [] in
        for c = 0 to num_classes - 1 do
          for k = 0 to rlen.(c) - 1 do
            stuck := rid.(off.(c) + k) :: !stuck
          done;
          for k = 0 to alen.(c) - 1 do
            stuck := aid.(off.(c) + k) :: !stuck
          done
        done;
        let occupancy =
          List.mapi
            (fun c cls -> (cls, Array.to_list (Array.sub free foff.(c) (foff.(c + 1) - foff.(c)))))
            Unit_model.all_classes
        in
        raise (Deadlock { cycle = !t; stuck = List.sort compare !stuck; occupancy })
      end;
      t := !next
    end
  done;
  !makespan

(* The in-order controller has no scoreboard: it dispatches one matrix
   instruction, waits for its completion, then dispatches the next —
   instructions never overlap, whatever units exist (Sec. 7.1's
   ORIANNA-IO). *)
let schedule_in_order (p : Program.t) ~latency ~starts ~finishes =
  let makespan = ref 0 in
  Array.iter
    (fun (ins : Instr.t) ->
      let id = ins.Instr.id in
      let dep_ready = Array.fold_left (fun acc s -> imax acc finishes.(s)) 0 ins.Instr.srcs in
      let start = imax dep_ready !makespan in
      let finish = start + latency.(id) in
      starts.(id) <- start;
      finishes.(id) <- finish;
      makespan := finish)
    p.Program.instrs;
  !makespan

let run_prepared ?(priority = Critical_path) ?jitter ~accel ~policy prep =
  let p = prep.program in
  let n = Array.length p.Program.instrs in
  Obs.with_span "sim.schedule"
    ~attrs:[ ("policy", policy_name policy); ("instructions", string_of_int n) ]
  @@ fun () ->
  let qr_rotators = accel.Accel.qr_rotators in
  (* [jitter] models degraded silicon: extra execution cycles per
     instruction, on top of the analytic unit latency.  The fault
     campaign injects here; without it the schedule is bit-identical
     to the jitter-free one. *)
  let timing =
    match jitter with
    | None -> nominal_timing prep ~qr_rotators
    | Some j ->
        let nominal = (nominal_timing prep ~qr_rotators).latency in
        timing_of prep (Array.mapi (fun id l -> l + imax 0 (j id)) nominal)
  in
  let latency = timing.latency in
  let counts = accel.Accel.counts in
  let starts = Array.make n 0 and finishes = Array.make n 0 in
  (* Earliest cycle each instruction may issue at: 0 except under
     [Ooo_fine], where each algorithm partition starts after the
     previous one's makespan. Stall accounting is relative to it. *)
  let issue_base = Array.make n 0 in
  let telemetry = Obs.enabled () in
  let ooo g parts =
    let key = match priority with Critical_path -> timing.cp_key | Fifo -> prep.all_ids in
    let foff = Array.make (num_classes + 1) 0 in
    Array.iteri (fun c cls -> foff.(c + 1) <- foff.(c) + List.assoc cls counts) classes_arr;
    let free = Array.make foff.(num_classes) 0 in
    let sc = scratch_for n in
    sc.peak <- 0;
    let makespan =
      Array.fold_left
        (fun t0 ids ->
          Array.iter (fun id -> issue_base.(id) <- t0) ids;
          schedule_ooo prep g sc ~latency ~key ~free ~foff ~starts ~finishes ~ids ~t0 ~telemetry)
        0 parts
    in
    (* One sample per run, not per event-loop iteration: the registry
       calls stay a fixed handful however long the stream is. *)
    if telemetry then Obs.observe "sim.ready_queue_depth" (float_of_int sc.peak);
    makespan
  in
  let makespan =
    match policy with
    | In_order -> schedule_in_order p ~latency ~starts ~finishes
    | Ooo_full -> ooo prep.full [| prep.all_ids |]
    | Ooo_fine -> ooo prep.fine prep.partitions
  in
  (* Stall causes: an instruction issuing at [start] after becoming
     issuable at [issue_base] spent [ready - issue_base] cycles waiting
     on operands (its sources still executing) and [start - ready]
     cycles on a structural hazard (operands done, every unit instance
     of its class busy — or, in order, the serial controller). *)
  let stall_operand = ref 0 and stall_structural = ref 0 in
  for id = 0 to n - 1 do
    let srcs = p.Program.instrs.(id).Instr.srcs in
    let base = issue_base.(id) in
    let ready = ref base in
    for k = 0 to Array.length srcs - 1 do
      ready := imax !ready finishes.(srcs.(k))
    done;
    stall_operand := !stall_operand + (!ready - base);
    stall_structural := !stall_structural + (starts.(id) - !ready)
  done;
  if telemetry then begin
    Obs.count "sim.instructions" ~n;
    Obs.count "sim.stall.operand_cycles" ~n:!stall_operand;
    Obs.count "sim.stall.structural_cycles" ~n:!stall_structural;
    Obs.set_gauge "sim.makespan_cycles" (float_of_int makespan)
  end;
  let seconds = float_of_int makespan /. (accel.Accel.clock_mhz *. 1e6) in
  let dynamic_energy_j = prep.dynamic_energy_j in
  let static_energy_j = Accel.static_power_w accel *. seconds in
  let utilization =
    List.map
      (fun (cls, k) ->
        let busy = timing.class_busy.(class_index cls) in
        let denom = float_of_int (max 1 (makespan * k)) in
        (cls, float_of_int busy /. denom))
      counts
  in
  {
    cycles = makespan;
    seconds;
    dynamic_energy_j;
    static_energy_j;
    energy_j = dynamic_energy_j +. static_energy_j;
    phase_busy = timing.phase_busy;
    unit_busy = timing.unit_busy;
    utilization;
    instructions = n;
    starts;
    finishes;
    issue_base;
    stall_operand_cycles = !stall_operand;
    stall_structural_cycles = !stall_structural;
  }

let run ?priority ?jitter ~accel ~policy p = run_prepared ?priority ?jitter ~accel ~policy (prepare p)

(* The PR-1 stall accounting, re-derived from nominal unit latencies
   and checked against what the schedule actually recorded.  Under
   fault injection this is the runtime assertion that flags latency
   anomalies (a unit taking longer than its analytic model) and broken
   degraded schedules; on a healthy run it always returns [Ok]. *)
let check_invariants ~accel (p : Program.t) r =
  let n = Array.length p.Program.instrs in
  if r.instructions <> n || Array.length r.starts <> n then
    Result.Error "result does not describe this program"
  else begin
    let latency = nominal_latencies p ~qr_rotators:accel.Accel.qr_rotators in
    let violation = ref None in
    let flag msg = if !violation = None then violation := Some msg in
    let operand = ref 0 and structural = ref 0 and makespan = ref 0 in
    Array.iter
      (fun (ins : Instr.t) ->
        let id = ins.Instr.id in
        let lat = latency.(id) in
        let base = r.issue_base.(id) in
        let ready =
          Array.fold_left (fun acc s -> max acc r.finishes.(s)) base ins.Instr.srcs
        in
        if r.finishes.(id) - r.starts.(id) <> lat then
          flag
            (Printf.sprintf "latency anomaly: #%d ran %d cycles, unit model says %d" id
               (r.finishes.(id) - r.starts.(id))
               lat)
        else if r.starts.(id) < ready then
          flag (Printf.sprintf "causality violation: #%d issued before its operands" id);
        operand := !operand + (ready - base);
        structural := !structural + (r.starts.(id) - ready);
        makespan := max !makespan r.finishes.(id))
      p.Program.instrs;
    if !violation = None then begin
      if !operand <> r.stall_operand_cycles then
        flag
          (Printf.sprintf "stall accounting: operand %d recorded, %d derived"
             r.stall_operand_cycles !operand);
      if !structural <> r.stall_structural_cycles then
        flag
          (Printf.sprintf "stall accounting: structural %d recorded, %d derived"
             r.stall_structural_cycles !structural);
      if !makespan <> r.cycles then
        flag (Printf.sprintf "makespan %d recorded, %d derived" r.cycles !makespan)
    end;
    match !violation with None -> Ok () | Some msg -> Result.Error msg
  end

let frame_seconds r = r.seconds

let pp_result ppf r =
  Format.fprintf ppf "@[<v>%d instrs, %d cycles (%.3f ms), energy %.3f mJ (dyn %.3f + static %.3f)@,"
    r.instructions r.cycles (r.seconds *. 1e3) (r.energy_j *. 1e3) (r.dynamic_energy_j *. 1e3)
    (r.static_energy_j *. 1e3);
  List.iter
    (fun (ph, c) -> Format.fprintf ppf "  %-10s %8d busy cycles@," (Instr.phase_name ph) c)
    r.phase_busy;
  List.iter
    (fun (cls, u) -> Format.fprintf ppf "  %-8s %5.1f%% utilized@," (Unit_model.class_name cls) (100.0 *. u))
    r.utilization;
  Format.fprintf ppf "  stalls: %d operand + %d structural instruction-cycles@,"
    r.stall_operand_cycles r.stall_structural_cycles;
  Format.fprintf ppf "@]"
