(* pipeline: the one-shot flow of solve / compile / generate / simulate.
   A unit is one round: one frame of every app in [App.all], back to
   back, each at its own seed drawn from the workload seed.  A frame is
   a compile at the shipped default -O level, DSE under the ZC706
   budget, [Schedule.run] under three issue policies (ooo-full, ooo-fine, in-order) on the
   generated accelerator, and a software solve of the frame's graphs. *)

open Orianna
open Orianna_sim
module App = Orianna_apps.App
module Rng = Orianna_util.Rng
module Compile = Orianna_compiler.Compile
module Optimizer = Orianna_fg.Optimizer
module Program = Orianna_isa.Program
module Dse = Orianna_hw.Dse
module Accel = Orianna_hw.Accel
module Resource = Orianna_hw.Resource

let name = "pipeline"
let first_units = 4

let metrics =
  [
    "frames_per_s"; "modeled_cycles_geomean"; "modeled_energy_geomean_uj"; "fg.solve_ms";
    "fg.solve_macs"; "compiler.compile_ms"; "compiler.lower_ms"; "isa.optimize_ms";
    "isa.instructions"; "hw.dse_ms"; "hw.dse_self_ms"; "hw.dse_candidates_evaluated";
    "hw.dse_cache_hit_ratio"; "sim.schedule_ms"; "sim.ns_per_instr"; "sim.stall_operand_cycles";
    "sim.stall_structural_cycles"; "par.busy_ratio"; "par.join_wait_s";
    "par.dse_speedup";
  ]
let policies = [ Schedule.Ooo_full; Schedule.Ooo_fine; Schedule.In_order ]

type state = { seed : int }
type input = (App.t * int) list

type frame = {
  program : Program.t;
  dse : Dse.result;
  schedules : Schedule.result list;  (** in [policies] order *)
  solves : Optimizer.report list;
}

type result = frame list

type frame_summary = {
  fingerprint : string;
  cycles : int;  (** ooo-full makespan *)
  energy_uj : float;
  instructions : int;
  stall_operand : int;
  stall_structural : int;
  solve_macs : int;
}

type summary = frame_summary list

(* The seed of every frame comes from the workload seed and the round. *)
let setup ~seed =
  (* warm-up frame: first-use costs leave the timed region *)
  let app = List.hd App.all in
  ignore (Pipeline.generate (Compile.compile_application (app.App.graphs (Rng.of_int seed))));
  { seed }

let input st k =
  let rng = Rng.of_int ((st.seed * 1_000_003) + k) in
  List.map (fun app -> (app, Rng.int rng 1_000_000_000)) App.all

let frame (app, seed) =
  incr Spans.item;
  let graphs = Spans.span "apps.graphs" (fun () -> app.App.graphs (Rng.of_int seed)) in
  let program = Spans.span "compiler.compile" (fun () -> Compile.compile_application graphs) in
  let dse = Spans.span "hw.dse" (fun () -> Pipeline.generate program) in
  let schedules =
    Spans.span "sim.schedule" (fun () ->
        List.map (fun policy -> Schedule.run ~accel:dse.Dse.best ~policy program) policies)
  in
  let solves = Spans.span "fg.solve" (fun () -> List.map (fun (_, g) -> Optimizer.optimize g) graphs) in
  { program; dse; schedules; solves }

let run _ input = List.map frame input

(* The compiled stream reproduces the software solver's update; every
   schedule passes its own accounting invariants; the generated design
   fits the budget; the solve ends at a finite error. *)
let check_frame (app, seed) f =
  let fresh = app.App.graphs (Rng.of_int seed) in
  let compiled = Program.run f.program in
  let deltas_ok =
    List.for_all
      (fun (gname, g) ->
        List.for_all
          (fun (v, reference) ->
            match List.assoc_opt (gname ^ "/" ^ v) compiled with
            | None -> false
            | Some d ->
                let scale = Array.fold_left (fun m x -> Float.max m (Float.abs x)) 1.0 reference in
                Array.length d = Array.length reference
                && Array.for_all2 (fun a b -> Float.abs (a -. b) <= 1e-6 *. scale) d reference)
          (Optimizer.solve_once g))
      fresh
  in
  let schedules_ok =
    List.for_all
      (fun r -> Result.is_ok (Schedule.check_invariants ~accel:f.dse.Dse.best f.program r))
      f.schedules
  in
  let fits = Accel.fits f.dse.Dse.best ~budget:Resource.zc706 in
  let solved =
    List.for_all (fun (r : Optimizer.report) -> Float.is_finite r.Optimizer.final_error) f.solves
  in
  let ok = deltas_ok && schedules_ok && fits && solved in
  if not ok then
    Printf.eprintf "pipeline: %s seed %d failed (deltas %b, schedules %b, fits %b, solved %b)\n"
      app.App.name seed deltas_ok schedules_ok fits solved;
  ok

let check input result =
  List.fold_left2 (fun acc i f -> if check_frame i f then acc else acc + 1) 0 input result

let summarize input result =
  List.map2
    (fun _ f ->
      let ooo = List.hd f.schedules in
      {
        fingerprint =
          String.concat ","
            (Int32.to_string (Program.hash f.program)
            :: Printf.sprintf "%h" f.dse.Dse.objective
            :: List.map
                 (fun (r : Schedule.result) -> Printf.sprintf "%d:%h" r.Schedule.cycles r.Schedule.energy_j)
                 f.schedules
            @ List.map (fun (r : Optimizer.report) -> Printf.sprintf "%d:%h" r.Optimizer.macs r.Optimizer.final_error) f.solves);
        cycles = ooo.Schedule.cycles;
        energy_uj = ooo.Schedule.energy_j *. 1e6;
        instructions = Program.length f.program;
        stall_operand = ooo.Schedule.stall_operand_cycles;
        stall_structural = ooo.Schedule.stall_structural_cycles;
        solve_macs = List.fold_left (fun a (r : Optimizer.report) -> a + r.Optimizer.macs) 0 f.solves;
      })
    input result

let items s = List.length s
let layer_items s = List.length s
let fingerprint s = String.concat ";" (List.map (fun f -> f.fingerprint) s)
let latency_ms _ = []

let geomean xs =
  exp (List.fold_left (fun a x -> a +. log x) 0.0 xs /. float_of_int (List.length xs))

let mean f frames =
  List.fold_left (fun a x -> a +. float_of_int (f x)) 0.0 frames /. float_of_int (List.length frames)

let modeled units =
  let frames = List.concat units in
  [
    ("modeled_cycles_geomean", geomean (List.map (fun f -> float_of_int f.cycles) frames));
    ("modeled_energy_geomean_uj", geomean (List.map (fun f -> f.energy_uj) frames));
    ("isa.instructions", mean (fun f -> f.instructions) frames);
    ("sim.stall_operand_cycles", mean (fun f -> f.stall_operand) frames);
    ("sim.stall_structural_cycles", mean (fun f -> f.stall_structural) frames);
    ("fg.solve_macs", mean (fun f -> f.solve_macs) frames);
  ]

let host _ ~throughput = [ ("frames_per_s", throughput) ]

let layers units ~spans ~program =
  let frames = float_of_int (List.length (List.concat units)) in
  let self =
    match Spans.program_intervals [ "sim.schedule" ] program with
    | [] -> nan
    | schedules -> Spans.self_time (Spans.named "hw.dse" spans) schedules
  in
  [ ("hw.dse_self_ms", self *. 1e3 /. frames) ]
