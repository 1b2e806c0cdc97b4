(* ORIANNA command-line driver.

   Subcommands walk the Fig. 2 pipeline:
     solve       run the software factor-graph solver on an application
     compile     lower an application to the matrix instruction stream
     generate    hardware generation under resource constraints
     simulate    cycle-level execution on a generated accelerator
     profile     instrumented compile→generate→simulate with span tree
     mission     Tbl. 5 mission success rates
     sphere      the Sec. 4.3 representation study
     faults      seeded fault-injection campaign with recovery stats
     serve       multi-tenant serving runtime over an accelerator fleet
     gate        check a JSON report against a committed baseline
     experiments regenerate every table and figure *)

open Cmdliner
open Orianna
open Orianna_util
open Orianna_hw
open Orianna_sim
open Orianna_baselines
module App = Orianna_apps.App
module Sphere = Orianna_apps.Sphere
module Program = Orianna_isa.Program
module Graph = Orianna_fg.Graph
module Obs = Orianna_obs.Obs
module Chrome_trace = Orianna_obs.Chrome_trace
module Report = Orianna_obs.Report
module Fault = Orianna_fault.Fault
module Campaign = Orianna_fault.Campaign

let app_arg =
  let parse s =
    try Ok (App.find s)
    with Not_found ->
      Error (`Msg (Printf.sprintf "unknown application %S (try: %s)" s
                     (String.concat ", " (List.map (fun (a : App.t) -> a.App.name) App.all))))
  in
  let print ppf (a : App.t) = Format.fprintf ppf "%s" a.App.name in
  Arg.conv (parse, print)

let app_pos =
  Arg.(required & pos 0 (some app_arg) None & info [] ~docv:"APP" ~doc:"Application name (MobileRobot, Manipulator, AutoVehicle, Quadrotor).")

(* "all", or a comma list of names through [app_arg]: an unknown name
   or an empty list is a usage error. *)
let apps_arg =
  let parse spec =
    if String.lowercase_ascii spec = "all" then Ok App.all
    else
      let names =
        String.split_on_char ',' spec |> List.map String.trim |> List.filter (fun s -> s <> "")
      in
      if names = [] then Error (`Msg "no applications selected")
      else
        List.fold_right
          (fun name acc ->
            Result.bind (Arg.conv_parser app_arg name) (fun a ->
                Result.map (fun apps -> a :: apps) acc))
          names (Ok [])
  in
  let print ppf apps =
    Format.pp_print_string ppf (String.concat "," (List.map (fun (a : App.t) -> a.App.name) apps))
  in
  Arg.conv (parse, print)

let apps_flag =
  Arg.(value & opt apps_arg App.all
       & info [ "apps" ] ~docv:"APPS"
           ~doc:"Comma-separated application names, or \"all\" for every registered app.")

let seed_flag =
  Arg.(value & opt int 42 & info [ "seed" ] ~docv:"N" ~doc:"Workload random seed.")

let jobs_flag =
  Arg.(value & opt (some int) None
       & info [ "jobs"; "j" ] ~docv:"N"
           ~doc:"Worker domains for the parallel sweeps (DSE candidates, fault missions, \
                 experiment matrices). Defaults to $(b,ORIANNA_JOBS) or the machine's \
                 recommended domain count; 1 forces fully sequential execution. Results are \
                 bit-identical for any value.")

let set_jobs jobs = Option.iter Orianna_par.Pool.set_default_jobs jobs

let opt_level_flag =
  Arg.(value & opt (enum [ ("0", 0); ("1", 1); ("3", 3) ]) 1
       & info [ "opt-level"; "O" ] ~docv:"N"
           ~doc:"Instruction-stream optimization level: 0 = off, 1 = CSE + peephole fusion + DCE + \
                 latency-aware reorder (default), 3 = additionally a profile-guided fixpoint \
                 measured on the base accelerator (stall-weighted reorder, resource-aware list \
                 scheduling and superword batching of same-shape matrix ops, every pass accepted \
                 only if the measured cycle count improves).")

let policy_flag =
  let policies =
    List.map
      (fun p -> (Schedule.policy_name p, p))
      [ Schedule.Ooo_full; Schedule.Ooo_fine; Schedule.In_order ]
  in
  Arg.(value & opt (enum policies) Schedule.Ooo_full
       & info [ "policy" ] ~docv:"POLICY"
           ~doc:("Issue policy: " ^ doc_alts_enum policies ^ "."))

(* One application stream as every shipped path builds it: compile at
   [opt_level], then [Opt_loop.post_compile_traced], whose report is
   [Some] when the measured loop ran (level 3). *)
let shipped_stream ?(dense = false) ~opt_level app ~seed =
  let graphs = app.App.graphs (Rng.of_int seed) in
  let program =
    if dense then Orianna_compiler.Compile.compile_dense_application ~opt_level graphs
    else Orianna_compiler.Compile.compile_application ~opt_level graphs
  in
  Opt_loop.post_compile_traced ~level:opt_level program

(* ---------------- observability plumbing ---------------- *)

let trace_flag =
  Arg.(value & opt (some string) None
       & info [ "trace" ] ~docv:"FILE"
           ~doc:"Write a Chrome trace-event JSON file (load it at ui.perfetto.dev or chrome://tracing).")

let report_flag =
  Arg.(value & opt (some string) None
       & info [ "report" ] ~docv:"FILE"
           ~doc:"Write a flat JSON run report: counters, gauges, histogram summaries and the span tree.")

(* Every file-writing flag is checked before the work starts: the path
   is opened for writing (created if missing, never truncated), so an
   unwritable path fails fast with a structured error naming the flag
   and the path, exit 2, instead of a [Sys_error] escaping after the
   whole run.  [write_output] reports a late write failure the same
   way. *)
let output_failure ~flag path message =
  Format.eprintf "orianna: %a@." Error.pp
    { Error.phase = Error.Runtime; context = [ flag; path ]; message };
  exit 2

let check_outputs outputs =
  List.iter
    (fun (flag, path) ->
      Option.iter
        (fun path ->
          try close_out (open_out_gen [ Open_wronly; Open_creat ] 0o644 path)
          with Sys_error msg -> output_failure ~flag path msg)
        path)
    outputs

let write_output ~flag path write =
  (try write path with Sys_error msg -> output_failure ~flag path msg);
  Format.printf "wrote %s@." path

let write_string ~flag path contents =
  write_output ~flag path (fun path ->
      Out_channel.with_open_bin path (fun oc -> output_string oc contents))

(* Run [f] with the telemetry registry enabled whenever an export was
   requested; [f] returns extra trace events (e.g. the scheduler's
   per-instruction slices) to append after the pipeline spans. *)
(* Command-specific meta fields first, then the standard provenance
   header (git rev, jobs, domains, ocaml version, timestamp). *)
let std_meta meta =
  Report.standard_meta ~extra:meta ~jobs:(Orianna_par.Pool.default_jobs ()) ()

let with_obs ~trace ~report ~meta f =
  check_outputs [ ("--trace", trace); ("--report", report) ];
  if trace <> None || report <> None then Obs.enable ();
  let extra = f () in
  Option.iter
    (fun path ->
      write_output ~flag:"--trace" path (fun path ->
          Chrome_trace.write_file path (Chrome_trace.of_spans (Obs.spans ()) @ extra)))
    trace;
  Option.iter
    (fun path -> write_output ~flag:"--report" path (Report.write_file ~meta:(std_meta meta)))
    report

(* ---------------- solve ---------------- *)

let solve_cmd =
  let run app seed =
    let graphs = app.App.graphs (Rng.of_int seed) in
    List.iter
      (fun (name, g) ->
        let before = Graph.error g in
        let report = Orianna_fg.Optimizer.optimize g in
        Format.printf "%-12s %3d vars %3d factors : error %10.4g -> %10.4g in %d iterations@."
          name (Graph.num_variables g) (Graph.num_factors g) before
          report.Orianna_fg.Optimizer.final_error report.Orianna_fg.Optimizer.iterations)
      graphs
  in
  let term = Term.(const run $ app_pos $ seed_flag) in
  Cmd.v (Cmd.info "solve" ~doc:"Run the software factor-graph solver on an application frame.") term

(* ---------------- compile ---------------- *)

let compile_cmd =
  let dense = Arg.(value & flag & info [ "dense" ] ~doc:"Use the VANILLA-HLS dense lowering.") in
  let dump = Arg.(value & flag & info [ "dump" ] ~doc:"Print the full instruction listing.") in
  let run app seed opt_level dense dump trace report =
    with_obs ~trace ~report
      ~meta:
        [
          ("command", "compile");
          ("app", app.App.name);
          ("seed", string_of_int seed);
          ("opt_level", string_of_int opt_level);
        ]
    @@ fun () ->
    let program, _ = shipped_stream ~dense ~opt_level app ~seed in
    Format.printf "%a@." Program.pp_stats (Program.stats program);
    if dump then Format.printf "%a@." Program.pp program;
    []
  in
  let term =
    Term.(const run $ app_pos $ seed_flag $ opt_level_flag $ dense $ dump $ trace_flag $ report_flag)
  in
  Cmd.v (Cmd.info "compile" ~doc:"Lower an application to the ORIANNA instruction stream.") term

(* ---------------- generate ---------------- *)

let generate_cmd =
  let dsp = Arg.(value & opt int Resource.zc706.Resource.dsp & info [ "dsp" ] ~docv:"N" ~doc:"DSP budget.") in
  let objective =
    Arg.(value & opt (enum [ ("latency", `Latency); ("energy", `Energy) ]) `Latency
         & info [ "objective" ] ~doc:"Generation objective.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the DSE trace and chosen configuration as JSON. Everything outside the \
                   $(b,meta) header is a pure function of the inputs (no timings), so the payload \
                   diffs byte-for-byte across job counts.")
  in
  let run app seed jobs dsp objective json trace report =
    set_jobs jobs;
    with_obs ~trace ~report
      ~meta:[ ("command", "generate"); ("app", app.App.name); ("seed", string_of_int seed) ]
    @@ fun () ->
    let frame = Pipeline.frame app ~seed in
    let budget = { Resource.zc706 with Resource.dsp = dsp } in
    let result = Pipeline.generate ~budget ~objective frame.Pipeline.program in
    if json then begin
      let module J = Orianna_obs.Json in
      let meta =
        [
          ("command", J.Str "generate");
          ("app", J.Str app.App.name);
          ("seed", J.int seed);
          ("dsp", J.int dsp);
          ( "objective",
            J.Str (match objective with `Latency -> "latency" | `Energy -> "energy") );
        ]
        @ List.map (fun (k, v) -> (k, J.Str v)) (std_meta [])
      in
      print_endline (J.to_string (Dse.result_json ~meta result))
    end
    else begin
      List.iter
        (fun (s : Dse.step) ->
          let what =
            match s.Dse.added with None -> "(initial)" | some -> Dse.move_name some
          in
          Format.printf "  %-12s objective %.4g  (%a)@." what s.Dse.objective Resource.pp
            s.Dse.resources)
        result.Dse.trace;
      Format.printf "%a@." Accel.pp result.Dse.best
    end;
    []
  in
  let term =
    Term.(const run $ app_pos $ seed_flag $ jobs_flag $ dsp $ objective $ json_flag $ trace_flag
          $ report_flag)
  in
  Cmd.v
    (Cmd.info "generate" ~doc:"Generate an accelerator for an application under a resource budget.")
    term

(* ---------------- simulate ---------------- *)

let simulate_cmd =
  let timeline =
    Arg.(value & flag
         & info [ "timeline" ]
             ~doc:"Print the per-unit-class utilization heat-strip alongside the summary.")
  in
  let run app seed jobs opt_level policy timeline trace report =
    set_jobs jobs;
    with_obs ~trace ~report
      ~meta:
        [
          ("command", "simulate");
          ("app", app.App.name);
          ("seed", string_of_int seed);
          ("policy", Schedule.policy_name policy);
          ("opt_level", string_of_int opt_level);
        ]
    @@ fun () ->
    let frame = Pipeline.frame ~opt_level app ~seed in
    let accel = (Pipeline.generate frame.Pipeline.program).Dse.best in
    let r = Schedule.run ~accel ~policy frame.Pipeline.program in
    Format.printf "%a@." Schedule.pp_result r;
    if timeline then print_string (Orianna_sim.Trace.utilization_timeline frame.Pipeline.program r);
    let arm = Cpu_model.run Cpu_model.arm ~construct_flop_scale:Pipeline.se3_construct_scale frame.Pipeline.program in
    let intel = Cpu_model.run Cpu_model.intel ~construct_flop_scale:Pipeline.se3_construct_scale frame.Pipeline.program in
    Format.printf "speedup: %.1fx over ARM, %.1fx over Intel@."
      (arm.Cpu_model.seconds /. r.Schedule.seconds)
      (intel.Cpu_model.seconds /. r.Schedule.seconds);
    if trace <> None then Orianna_sim.Trace.chrome_events frame.Pipeline.program r else []
  in
  let term =
    Term.(const run $ app_pos $ seed_flag $ jobs_flag $ opt_level_flag $ policy_flag $ timeline
          $ trace_flag $ report_flag)
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Cycle-level execution on a generated accelerator.") term

(* ---------------- trace ---------------- *)

let trace_cmd =
  let gantt = Arg.(value & opt (some string) None & info [ "gantt" ] ~docv:"FILE" ~doc:"Write a per-instruction schedule CSV.") in
  let dot = Arg.(value & opt (some string) None & info [ "dot" ] ~docv:"FILE" ~doc:"Write the dependency DAG as GraphViz dot.") in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"Write a Gantt chart as SVG.") in
  let run app seed policy gantt dot svg =
    check_outputs [ ("--gantt", gantt); ("--dot", dot); ("--svg", svg) ];
    let frame = Pipeline.frame app ~seed in
    let accel = (Pipeline.generate frame.Pipeline.program).Dse.best in
    let r = Schedule.run ~accel ~policy frame.Pipeline.program in
    print_string (Orianna_sim.Trace.utilization_timeline frame.Pipeline.program r);
    Format.printf "makespan: %d cycles (%.1f us)@." r.Schedule.cycles (r.Schedule.seconds *. 1e6);
    Option.iter
      (fun path ->
        write_string ~flag:"--gantt" path (Orianna_sim.Trace.gantt_csv frame.Pipeline.program r))
      gantt;
    Option.iter
      (fun path -> write_string ~flag:"--dot" path (Orianna_sim.Trace.to_dot frame.Pipeline.program))
      dot;
    Option.iter
      (fun path ->
        write_string ~flag:"--svg" path (Orianna_viz.Plots.gantt_svg frame.Pipeline.program r))
      svg
  in
  let term = Term.(const run $ app_pos $ seed_flag $ policy_flag $ gantt $ dot $ svg) in
  Cmd.v (Cmd.info "trace" ~doc:"Dump schedule timelines, Gantt CSVs and dependency graphs.") term

(* ---------------- mission ---------------- *)

let mission_cmd =
  let missions = Arg.(value & opt int 30 & info [ "missions" ] ~docv:"N" ~doc:"Number of missions.") in
  let solver =
    Arg.(value & opt (enum [ ("software", `Software); ("compiled", `Compiled) ]) `Compiled
         & info [ "solver" ] ~doc:"Execution path: software or compiled.")
  in
  let run app missions solver =
    let rate = App.success_rate app ~solver ~missions in
    Format.printf "%s: %.1f%% success over %d missions@." app.App.name (100.0 *. rate) missions
  in
  let term = Term.(const run $ app_pos $ missions $ solver) in
  Cmd.v (Cmd.info "mission" ~doc:"Mission success rate (Tbl. 5).") term

(* ---------------- program image ---------------- *)

let image_cmd =
  let out = Arg.(required & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Output binary image.") in
  let run app seed out =
    check_outputs [ ("-o", Some out) ];
    let frame = Pipeline.frame app ~seed in
    let image = Orianna_isa.Encode.encode frame.Pipeline.program in
    (try Out_channel.with_open_bin out (fun oc -> output_string oc image)
     with Sys_error msg -> output_failure ~flag:"-o" out msg);
    let kernels = Orianna_isa.Encode.kernel_names frame.Pipeline.program in
    Format.printf "wrote %s: %d bytes, %d instructions, %d opaque kernels@." out
      (String.length image)
      (Program.length frame.Pipeline.program)
      (List.length kernels);
    let r =
      Orianna_sim.Schedule.run
        ~accel:(Pipeline.generate frame.Pipeline.program).Dse.best
        ~policy:Orianna_sim.Schedule.Ooo_full frame.Pipeline.program
    in
    let occ = Orianna_sim.Buffer_model.analyze frame.Pipeline.program r in
    Format.printf "buffer working set: %a@." Orianna_sim.Buffer_model.pp occ
  in
  let term = Term.(const run $ app_pos $ seed_flag $ out) in
  Cmd.v (Cmd.info "image" ~doc:"Serialize an application's instruction stream to a binary image.") term

(* ---------------- sphere ---------------- *)

let sphere_cmd =
  let csv = Arg.(value & opt (some string) None & info [ "csv" ] ~docv:"FILE" ~doc:"Dump the Fig. 9 trajectories as CSV.") in
  let svg = Arg.(value & opt (some string) None & info [ "svg" ] ~docv:"FILE" ~doc:"Render the Fig. 9 trajectories as SVG.") in
  let run csv svg =
    check_outputs [ ("--csv", csv); ("--svg", svg) ];
    print_string (Experiments.table1 ());
    if csv <> None || svg <> None then begin
      let ds = Sphere.generate Sphere.default_config in
      let estimate = Sphere.unified_estimate ds in
      Option.iter
        (fun path -> write_string ~flag:"--csv" path (Sphere.trajectory_csv ds ~estimate))
        csv;
      Option.iter
        (fun path ->
          write_string ~flag:"--svg" path
            (Orianna_viz.Plots.trajectory_svg ~truth:ds.Sphere.truth ~initial:ds.Sphere.initial
               ~estimate ()))
        svg
    end
  in
  Cmd.v (Cmd.info "sphere" ~doc:"The Sec. 4.3 pose-representation study (Tbl. 1).")
    Term.(const run $ csv $ svg)

(* ---------------- g2o ---------------- *)

let g2o_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE" ~doc:"g2o pose-graph file.") in
  let out = Arg.(value & opt (some string) None & info [ "o" ] ~docv:"FILE" ~doc:"Write the optimized graph back in g2o form.") in
  let run file out =
    check_outputs [ ("-o", out) ];
    let ic = open_in file in
    let n = in_channel_length ic in
    let contents = really_input_string ic n in
    close_in ic;
    let g, report = Orianna_apps.G2o.solve_file contents in
    Format.printf "%d variables, %d factors: error %.6g -> %.6g in %d iterations@."
      (Graph.num_variables g) (Graph.num_factors g) report.Orianna_fg.Optimizer.initial_error
      report.Orianna_fg.Optimizer.final_error report.Orianna_fg.Optimizer.iterations;
    Option.iter
      (fun path ->
        (* Re-emit vertices at their optimized values (edges are not
           stored on the graph; only vertices are written). *)
        let entries =
          List.filter_map
            (fun v ->
              match Graph.value g v with
              | Orianna_fg.Var.Pose2 p ->
                  Some (Orianna_apps.G2o.Vertex2 (int_of_string (String.sub v 1 (String.length v - 1)), p))
              | Orianna_fg.Var.Pose3 p ->
                  Some (Orianna_apps.G2o.Vertex3 (int_of_string (String.sub v 1 (String.length v - 1)), p))
              | Orianna_fg.Var.Se3 _ | Orianna_fg.Var.Vector _ -> None)
            (Graph.variables g)
        in
        write_string ~flag:"-o" path (Orianna_apps.G2o.to_string entries))
      out
  in
  let term = Term.(const run $ file $ out) in
  Cmd.v (Cmd.info "g2o" ~doc:"Optimize a pose graph in the standard g2o text format.") term

(* ---------------- profile ---------------- *)

let profile_cmd =
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the run report as JSON to stdout instead of text tables — the same \
                   machine-readable shape `serve --report` emits.")
  in
  let par_flag =
    Arg.(value & flag
         & info [ "par" ]
             ~doc:"Parallel-efficiency report: run the DSE sweep sequentially and at $(b,--jobs) \
                   lanes, then decompose the gap to perfect scaling into serial sections, work \
                   inflation, pool overhead and idle time, with per-lane utilization and GC \
                   accounting. With $(b,--trace), each pool domain gets its own Perfetto track.")
  in
  (* --par: same workload (the generate DSE sweep) timed sequentially
     and at N lanes; [Orianna_par.Gap] splits the gap to perfect
     scaling into serial / inflation / overhead / idle components that
     account for 100% of it by construction. *)
  let run_par app seed njobs opt_level json trace report =
    let module Pool = Orianna_par.Pool in
    let module Gap = Orianna_par.Gap in
    let module J = Orianna_obs.Json in
    Obs.enable ();
    let frame = Obs.with_span "compile" (fun () -> Pipeline.frame ~opt_level app ~seed) in
    let timed_generate label jobs =
      Pool.set_default_jobs jobs;
      ignore (Pool.drain_stats ());
      let t0 = Obs.now_s () in
      let result =
        Obs.with_span ~gc:true label (fun () -> Pipeline.generate frame.Pipeline.program)
      in
      let wall = Obs.now_s () -. t0 in
      (result, wall, Pool.drain_stats ())
    in
    let seq_result, t_seq, seq_records = timed_generate "generate(seq)" 1 in
    let par_result, t_par, par_records = timed_generate "generate(par)" njobs in
    if seq_result.Dse.best <> par_result.Dse.best then
      Format.eprintf "warning: sequential and parallel DSE disagree (determinism bug)@.";
    let n = float_of_int njobs in
    let seq_sum = Pool.summarize seq_records and par_sum = Pool.summarize par_records in
    let g = Gap.decompose ~jobs:njobs ~t_seq ~t_par ~seq:seq_records ~par:par_records in
    let r_par = g.Gap.region_par_s and r_seq = g.Gap.region_seq_s in
    let s_seq = Float.max 0.0 (t_seq -. r_seq) in
    let gap = g.Gap.gap_s in
    let serial_c = g.Gap.serial_s in
    let inflation_c = g.Gap.inflation_s in
    let overhead_c = g.Gap.overhead_s in
    let idle_c = g.Gap.idle_s in
    let accounted = g.Gap.accounted_s in
    let speedup = g.Gap.speedup in
    let gc_of (s : Pool.summary) =
      Array.fold_left
        (fun (mw, mc, jc) (t : Pool.lane_totals) ->
          (mw +. t.Pool.tminor_words, mc + t.Pool.tminor_collections,
           jc + t.Pool.tmajor_collections))
        (0.0, 0, 0) s.Pool.per_lane
    in
    let mw_seq, mc_seq, jc_seq = gc_of seq_sum in
    let mw_par, mc_par, jc_par = gc_of par_sum in
    let lane_json (t : Pool.lane_totals) =
      J.Obj
        [
          ("lane", J.int t.Pool.tlane);
          ("slots", J.int t.Pool.tslots);
          ("busy_s", J.Num t.Pool.tbusy_s);
          ("utilization", J.Num (if r_par > 0.0 then t.Pool.tbusy_s /. r_par else 0.0));
          ("minor_words", J.Num t.Pool.tminor_words);
          ("minor_collections", J.int t.Pool.tminor_collections);
          ("major_collections", J.int t.Pool.tmajor_collections);
        ]
    in
    let par_json =
      ( "par",
        J.Obj
          (Gap.json_fields g
          @ [
              ( "gc",
                J.Obj
                  [
                    ("minor_words_seq", J.Num mw_seq);
                    ("minor_words_par", J.Num mw_par);
                    ("minor_collections_seq", J.int mc_seq);
                    ("minor_collections_par", J.int mc_par);
                    ("major_collections_seq", J.int jc_seq);
                    ("major_collections_par", J.int jc_par);
                  ] );
              ("lanes", J.Arr (Array.to_list (Array.map lane_json par_sum.Pool.per_lane)));
            ]) )
    in
    let meta =
      std_meta
        [
          ("command", "profile--par");
          ("app", app.App.name);
          ("seed", string_of_int seed);
          ("opt_level", string_of_int opt_level);
        ]
    in
    if json then print_endline (Report.to_string ~meta ~extra:[ par_json ] ())
    else begin
      let ms v = v *. 1e3 in
      let pct part = if gap > 1e-9 then 100.0 *. part /. gap else 0.0 in
      Format.printf "parallel efficiency: %s generate sweep, %d jobs@." app.App.name njobs;
      Format.printf "  sequential  %8.1f ms  (pool regions %.1f ms, serial %.1f ms)@."
        (ms t_seq) (ms r_seq) (ms s_seq);
      Format.printf "  parallel    %8.1f ms  speedup %.2fx  efficiency %.1f%%@." (ms t_par)
        speedup (100.0 *. speedup /. n);
      Format.printf "  perfect scaling: %.1f ms; gap %.1f ms, accounted %.1f ms (%.0f%%):@."
        (ms (t_seq /. n)) (ms gap) (ms accounted)
        (if gap > 1e-9 then 100.0 *. accounted /. gap else 100.0);
      Format.printf "    serial sections (not parallelized) %8.1f ms  %5.1f%%@." (ms serial_c)
        (pct serial_c);
      Format.printf "    work inflation (par vs seq busy)   %8.1f ms  %5.1f%%@."
        (ms inflation_c) (pct inflation_c);
      Format.printf "    pool overhead (dispatch + join)    %8.1f ms  %5.1f%%@."
        (ms overhead_c) (pct overhead_c);
      Format.printf "    idle lanes (imbalance / tail)      %8.1f ms  %5.1f%%@." (ms idle_c)
        (pct idle_c);
      let t =
        Texttable.create ~title:"Per-lane"
          ~headers:[ "lane"; "slots"; "busy ms"; "util %"; "minor words"; "minor gc"; "major gc" ]
      in
      Array.iter
        (fun (lt : Pool.lane_totals) ->
          Texttable.add_row t
            [
              (if lt.Pool.tlane = 0 then "0 (caller)" else string_of_int lt.Pool.tlane);
              string_of_int lt.Pool.tslots;
              Printf.sprintf "%.1f" (ms lt.Pool.tbusy_s);
              Printf.sprintf "%.1f"
                (if r_par > 0.0 then 100.0 *. lt.Pool.tbusy_s /. r_par else 0.0);
              Printf.sprintf "%.3g" lt.Pool.tminor_words;
              string_of_int lt.Pool.tminor_collections;
              string_of_int lt.Pool.tmajor_collections;
            ])
        par_sum.Pool.per_lane;
      Texttable.print t;
      Format.printf
        "  GC: minor words %.3g -> %.3g (%.2fx), minor collections %d -> %d, major %d -> %d@."
        mw_seq mw_par
        (if mw_seq > 0.0 then mw_par /. mw_seq else 0.0)
        mc_seq mc_par jc_seq jc_par
    end;
    Option.iter
      (fun path ->
        write_output ~flag:"--trace" path (fun path ->
            Chrome_trace.write_file path
              (Chrome_trace.of_spans (Obs.spans ()) @ Pool.chrome_events par_records)))
      trace;
    Option.iter
      (fun path -> write_output ~flag:"--report" path (Report.write_file ~meta ~extra:[ par_json ]))
      report
  in
  let run app seed jobs opt_level policy json par trace report =
    check_outputs [ ("--trace", trace); ("--report", report) ];
    if par then
      run_par app seed
        (match jobs with Some n -> max 1 n | None -> Orianna_par.Pool.default_jobs ())
        opt_level json trace report
    else begin
    set_jobs jobs;
    Obs.enable ();
    let program, opt_report =
      Obs.with_span "compile" (fun () -> shipped_stream ~opt_level app ~seed)
    in
    let accel = Obs.with_span "generate" (fun () -> (Pipeline.generate program).Dse.best) in
    let r = Obs.with_span "simulate" (fun () -> Schedule.run ~accel ~policy program) in
    (* Per-pass cycle attribution of the shipped measured loop (level
       3 only): every accepted (or rejected) pass with its cycle delta
       as the loop measured it. *)
    let opt_deltas =
      match opt_report with Some rep -> rep.Orianna_isa.Opt.cycle_deltas | None -> []
    in
    let meta =
      std_meta
        [
          ("command", "profile");
          ("app", app.App.name);
          ("seed", string_of_int seed);
          ("policy", Schedule.policy_name policy);
          ("opt_level", string_of_int opt_level);
        ]
    in
    let profile_extra =
      ( "profile",
        Orianna_obs.Json.Obj
          [
            ("instructions", Orianna_obs.Json.int r.Schedule.instructions);
            ("cycles", Orianna_obs.Json.int r.Schedule.cycles);
            ("seconds", Orianna_obs.Json.Num r.Schedule.seconds);
            ( "opt_passes",
              Orianna_obs.Json.Arr
                (List.map
                   (fun (pass, d) ->
                     Orianna_obs.Json.Obj
                       [
                         ("pass", Orianna_obs.Json.Str pass);
                         ("cycles_saved", Orianna_obs.Json.int d);
                       ])
                   opt_deltas) );
          ] )
    in
    if json then print_endline (Report.to_string ~meta ~extra:[ profile_extra ] ())
    else begin
    Format.printf "%s %s: %d instructions, %d cycles (%.3f ms simulated)@.@." app.App.name
      (Schedule.policy_name policy) r.Schedule.instructions r.Schedule.cycles
      (r.Schedule.seconds *. 1e3);
    if opt_deltas <> [] then begin
      let t =
        Texttable.create ~title:"Optimizer passes (O3 measured loop, base accelerator, ooo-full)"
          ~headers:[ "pass"; "cycles saved" ]
      in
      List.iter (fun (pass, d) -> Texttable.add_row t [ pass; string_of_int d ]) opt_deltas;
      Texttable.add_row t
        [ "total"; string_of_int (List.fold_left (fun acc (_, d) -> acc + d) 0 opt_deltas) ];
      Texttable.print t
    end;
    Format.printf "%a@." Obs.pp_spans (Obs.spans ());
    let counters = Obs.counters () in
    if counters <> [] then begin
      let t = Texttable.create ~title:"Counters" ~headers:[ "counter"; "value" ] in
      List.iter (fun (name, v) -> Texttable.add_row t [ name; string_of_int v ]) counters;
      Texttable.print t
    end;
    let gauges = Obs.gauges () in
    if gauges <> [] then begin
      let t = Texttable.create ~title:"Gauges" ~headers:[ "gauge"; "value" ] in
      List.iter (fun (name, v) -> Texttable.add_row t [ name; Printf.sprintf "%.6g" v ]) gauges;
      Texttable.print t
    end;
    let histograms = Obs.histograms () in
    if histograms <> [] then begin
      let t =
        Texttable.create ~title:"Histograms"
          ~headers:[ "histogram"; "samples"; "mean"; "min"; "max" ]
      in
      List.iter
        (fun (name, h) ->
          Texttable.add_row t
            [
              name;
              string_of_int h.Obs.samples;
              Printf.sprintf "%.4g" (Obs.mean h);
              Printf.sprintf "%.4g" h.Obs.hmin;
              Printf.sprintf "%.4g" h.Obs.hmax;
            ])
        histograms;
      Texttable.print t
    end
    end;
    Option.iter
      (fun path ->
        write_output ~flag:"--trace" path (fun path ->
            Chrome_trace.write_file path
              (Chrome_trace.of_spans (Obs.spans ()) @ Orianna_sim.Trace.chrome_events program r)))
      trace;
    Option.iter
      (fun path ->
        write_output ~flag:"--report" path (Report.write_file ~meta ~extra:[ profile_extra ]))
      report
    end
  in
  let term =
    Term.(
      const run $ app_pos $ seed_flag $ jobs_flag $ opt_level_flag $ policy_flag $ json_flag
      $ par_flag $ trace_flag $ report_flag)
  in
  Cmd.v
    (Cmd.info "profile"
       ~doc:"Run the full compile -> generate -> simulate pipeline under telemetry and print the span tree and counters.")
    term

(* ---------------- faults ---------------- *)

let faults_cmd =
  let missions =
    Arg.(value & opt int Campaign.default_config.Campaign.missions
         & info [ "missions" ] ~docv:"N" ~doc:"Monte-Carlo missions (one injected fault each).")
  in
  let retries =
    Arg.(value & opt int Campaign.default_config.Campaign.max_retries
         & info [ "retries" ] ~docv:"K" ~doc:"Bounded retry budget per detected fault.")
  in
  let events =
    Arg.(value & flag & info [ "events" ] ~doc:"Print the per-mission event log before the summary.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the mission log and summary as JSON instead of the table. The output \
                   contains no timings, so it diffs byte-for-byte across job counts.")
  in
  let run app seed jobs missions policy retries events json trace report =
    set_jobs jobs;
    let any_escaped = ref false in
    with_obs ~trace ~report
      ~meta:
        [
          ("command", "faults");
          ("app", app.App.name);
          ("seed", string_of_int seed);
          ("missions", string_of_int missions);
        ]
      (fun () ->
        let frame = Pipeline.frame app ~seed in
        let accel = (Pipeline.generate frame.Pipeline.program).Dse.best in
        let config =
          { Campaign.default_config with Campaign.missions; policy; max_retries = retries }
        in
        let summary =
          Campaign.run ~config ~rng:(Rng.of_int seed) ~graphs:frame.Pipeline.graphs
            ~program:frame.Pipeline.program ~accel ()
        in
        if json then begin
          let module J = Orianna_obs.Json in
          let meta =
            [
              ("command", J.Str "faults");
              ("app", J.Str app.App.name);
              ("seed", J.int seed);
              ("missions", J.int missions);
              ("policy", J.Str (Schedule.policy_name policy));
              ("accel", J.Str accel.Accel.name);
            ]
            @ List.map (fun (k, v) -> (k, J.Str v)) (std_meta [])
          in
          print_endline (J.to_string (Campaign.json ~meta summary))
        end
        else begin
          if events then
            List.iter (fun e -> Format.printf "%a@." Fault.pp_event e) summary.Campaign.events;
          Format.printf "%s %s, seed %d: %d missions on %s@." app.App.name
            (Schedule.policy_name policy) seed missions accel.Accel.name;
          print_string (Campaign.table summary)
        end;
        any_escaped := Campaign.escaped summary;
        []);
    if !any_escaped then begin
      Format.eprintf "FAULT ESCAPE: at least one injected fault evaded detection and recovery@.";
      exit 1
    end
  in
  let term =
    Term.(const run $ app_pos $ seed_flag $ jobs_flag $ missions $ policy_flag $ retries $ events
          $ json_flag $ trace_flag $ report_flag)
  in
  Cmd.v
    (Cmd.info "faults"
       ~doc:"Monte-Carlo fault-injection campaign: inject seeded faults, report detection / recovery / escape rates, exit non-zero iff a fault escapes.")
    term

(* ---------------- serve ---------------- *)

let serve_cmd =
  let module Serve = Orianna_serve.Serve in
  let module Request = Orianna_serve.Request in
  let module Dispatch = Orianna_serve.Dispatch in
  let module Cache = Orianna_serve.Cache in
  let requests = Arg.(value & opt int 200 & info [ "requests" ] ~docv:"N" ~doc:"Trace length.") in
  let rate = Arg.(value & opt float 20000.0 & info [ "rate" ] ~docv:"HZ" ~doc:"Mean arrival rate.") in
  let burst =
    Arg.(value & opt int 0
         & info [ "burst" ] ~docv:"K"
             ~doc:"Clump arrivals into back-to-back groups of $(docv) (0 = Poisson).")
  in
  let instances =
    Arg.(value & opt int Serve.default_config.Serve.instances
         & info [ "instances" ] ~docv:"N" ~doc:"Accelerator fleet size.")
  in
  let policy =
    Arg.(value
         & opt (enum [ ("fifo", Dispatch.Fifo); ("edf", Dispatch.Edf); ("least-loaded", Dispatch.Least_loaded) ])
             Serve.default_config.Serve.policy
         & info [ "policy" ] ~doc:"Dispatch policy: fifo, edf or least-loaded.")
  in
  let queue =
    Arg.(value & opt int Serve.default_config.Serve.queue_capacity
         & info [ "queue" ] ~docv:"N" ~doc:"Admission-queue capacity.")
  in
  let max_batch =
    Arg.(value & opt int Serve.default_config.Serve.max_batch
         & info [ "max-batch" ] ~docv:"N" ~doc:"Largest same-program batch.")
  in
  let cache_capacity =
    Arg.(value & opt int Serve.default_config.Serve.cache_capacity
         & info [ "cache" ] ~docv:"N" ~doc:"Compile-cache capacity (entries).")
  in
  let deadline_ms =
    Arg.(value & opt (pair ~sep:',' float float) (1.0, 4.0)
         & info [ "deadline-ms" ] ~docv:"LO,HI" ~doc:"Uniform deadline slack range in ms.")
  in
  let mask =
    let parse s =
      match String.index_opt s '@' with
      | None -> Error (`Msg "expected CLASS@INSTANCE, e.g. qr@1")
      | Some i -> (
          let cname = String.lowercase_ascii (String.sub s 0 i) in
          let idx = String.sub s (i + 1) (String.length s - i - 1) in
          match
            ( List.find_opt
                (fun c -> String.lowercase_ascii (Unit_model.class_name c) = cname)
                Unit_model.all_classes,
              int_of_string_opt idx )
          with
          | Some c, Some i -> Ok (i, c)
          | None, _ ->
              Error
                (`Msg
                   (Printf.sprintf "unknown unit class %S (try: %s)" cname
                      (String.concat ", "
                         (List.map
                            (fun c -> String.lowercase_ascii (Unit_model.class_name c))
                            Unit_model.all_classes))))
          | _, None -> Error (`Msg (Printf.sprintf "bad instance index %S" idx)))
    in
    let print ppf (i, c) = Format.fprintf ppf "%s@%d" (Unit_model.class_name c) i in
    Arg.(value & opt_all (conv (parse, print)) []
         & info [ "mask" ] ~docv:"CLASS@IDX"
             ~doc:"Degrade a fleet instance: mask one failed unit of CLASS out of instance IDX \
                   (repeatable). The dispatcher reroutes programs the degraded instance can no \
                   longer execute.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the machine-readable report to stdout.")
  in
  let chaos_rate =
    Arg.(value & opt float 0.0
         & info [ "chaos" ] ~docv:"RATE"
             ~doc:"Inject seeded instance faults targeting this steady-state per-instance \
                   unavailability (e.g. 0.1); 0 disables chaos.")
  in
  let mttr =
    Arg.(value & opt float Orianna_serve.Chaos.default.Orianna_serve.Chaos.restart_mean_s
         & info [ "mttr" ] ~docv:"S" ~doc:"Mean time to restart a crashed instance, seconds.")
  in
  let retries =
    Arg.(value & opt int Serve.default_config.Serve.max_retries
         & info [ "retries" ] ~docv:"N"
             ~doc:"Retry budget per request copy recovered from a failed instance.")
  in
  let hedge =
    Arg.(value & flag
         & info [ "hedge" ]
             ~doc:"Launch a hedged duplicate for near-deadline retries; first completion wins.")
  in
  let chaos_seed =
    Arg.(value & opt (some int) None
         & info [ "chaos-seed" ] ~docv:"SEED"
             ~doc:"Seed for the chaos schedule (defaults to the trace seed).")
  in
  let run apps seed jobs opt_level requests rate burst instances policy queue max_batch
      cache_capacity deadline_ms masked json chaos_rate mttr retries hedge chaos_seed trace report =
    set_jobs jobs;
    check_outputs [ ("--trace", trace); ("--report", report) ];
    let apps = List.map (fun (a : App.t) -> a.App.name) apps in
    let shape =
      if burst > 1 then Request.Bursty { rate_hz = rate; burst } else Request.Poisson { rate_hz = rate }
    in
    let dl_lo, dl_hi = deadline_ms in
    let trace_reqs =
      Request.generate ~rng:(Rng.of_int seed) ~shape ~apps
        ~deadline_s:(dl_lo *. 1e-3, dl_hi *. 1e-3)
        ~n:requests
    in
    let chaos =
      if chaos_rate <= 0.0 then None
      else
        Some
          (Orianna_serve.Chaos.of_intensity
             ~seed:(Option.value chaos_seed ~default:seed)
             ~mttr_s:mttr chaos_rate)
    in
    let config =
      {
        Orianna_serve.Serve.default_config with
        Serve.instances;
        masked;
        policy;
        queue_capacity = queue;
        max_batch;
        cache_capacity;
        opt_level;
        chaos;
        max_retries = retries;
        hedge;
      }
    in
    let meta =
      std_meta
        ([
           ("command", "serve");
           ("apps", String.concat "," apps);
           ("seed", string_of_int seed);
           ("requests", string_of_int requests);
           ("policy", Dispatch.policy_name policy);
         ]
        @
        if chaos = None then []
        else
          [
            ("chaos", Printf.sprintf "%g" chaos_rate);
            ("mttr_s", Printf.sprintf "%g" mttr);
            ("retries", string_of_int retries);
            ("hedge", string_of_bool hedge);
          ])
    in
    if trace <> None || report <> None then Obs.enable ();
    let r = Serve.run ~config ~trace:trace_reqs () in
    Option.iter
      (fun path ->
        write_output ~flag:"--trace" path (fun path ->
            Chrome_trace.write_file path
              (Chrome_trace.of_spans (Obs.spans ()) @ Serve.chrome_events r)))
      trace;
    (* The flat run report embeds the campaign summary under "serve",
       the same shape `profile --json` uses for its section. *)
    Option.iter
      (fun path ->
        write_output ~flag:"--report" path
          (Report.write_file ~meta ~extra:[ ("serve", Serve.report_json r) ]))
      report;
    if json then
      print_endline
        (Orianna_obs.Json.to_string
           (Orianna_obs.Json.Obj [ ("meta", Report.meta_json meta); ("serve", Serve.report_json r) ]))
    else print_string (Serve.table r);
    (* Conservation is an invariant, not a baseline: no admitted
       request may vanish without a completion or a rejection. *)
    if not (Orianna_fault.Fleet_chaos.conserved trace_reqs r) then begin
      Format.eprintf "SILENT LOSS: %s: completions + rejections do not partition the trace ids@."
        (String.lowercase_ascii (String.concat "," apps));
      exit 1
    end
  in
  let term =
    Term.(const run $ apps_flag $ seed_flag $ jobs_flag $ opt_level_flag $ requests $ rate $ burst
          $ instances $ policy $ queue
          $ max_batch $ cache_capacity $ deadline_ms $ mask $ json_flag $ chaos_rate
          $ mttr $ retries $ hedge $ chaos_seed $ trace_flag $ report_flag)
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:"Replay a seeded arrival trace through the multi-tenant serving runtime: compile \
             cache, bounded admission queue, batching and deadline-aware dispatch over an \
             accelerator fleet.")
    term

(* ---------------- sessions ---------------- *)

let sessions_cmd =
  let module Serve = Orianna_serve.Serve in
  let module Session = Orianna_serve.Session in
  let module Request = Orianna_serve.Request in
  let module Stream = Orianna_apps.Stream in
  let module Datasets = Orianna_apps.Datasets in
  let dataset =
    Arg.(value
         & opt (enum [ ("manhattan", `Manhattan); ("loopy", `Loopy); ("sphere", `Sphere) ]) `Manhattan
         & info [ "dataset" ] ~docv:"NAME"
             ~doc:"Streamed dataset: manhattan (SE(2) random walk), loopy (loop-closure-heavy \
                   synthetic mission) or sphere (SE(3) benchmark).")
  in
  let steps =
    Arg.(value & opt int 80
         & info [ "steps" ] ~docv:"N"
             ~doc:"Manhattan stream length in ticks (loopy and sphere have fixed shapes).")
  in
  let tenants =
    Arg.(value & opt int 3
         & info [ "tenants" ] ~docv:"N" ~doc:"Concurrent sessions replaying the stream.")
  in
  let period_us =
    Arg.(value & opt float 200.0
         & info [ "period-us" ] ~docv:"US" ~doc:"Tick arrival period per session, microseconds.")
  in
  let solves =
    Arg.(value & opt int 0
         & info [ "solves" ] ~docv:"N"
             ~doc:"Background one-shot solve requests mixed into the trace (all registered apps).")
  in
  let window =
    Arg.(value & opt (some int) None
         & info [ "window" ] ~docv:"N"
             ~doc:"Sliding window: marginalize each session down to its most recent $(docv) \
                   variables (default: keep everything).")
  in
  let max_sessions =
    Arg.(value & opt int Session.default_params.Session.max_sessions
         & info [ "max-sessions" ] ~docv:"N"
             ~doc:"Resident-session capacity; the least-recently-used session is evicted beyond \
                   it and restarts on its next tick.")
  in
  let idle_timeout_ms =
    Arg.(value & opt float (Session.default_params.Session.idle_timeout_s *. 1e3)
         & info [ "idle-timeout-ms" ] ~docv:"MS"
             ~doc:"Virtual-clock inactivity before a resident session expires; <= 0 disables.")
  in
  let queue =
    Arg.(value & opt int 256
         & info [ "queue" ] ~docv:"N" ~doc:"Admission-queue capacity.")
  in
  let json_flag =
    Arg.(value & flag & info [ "json" ] ~doc:"Print the machine-readable report to stdout.")
  in
  let run dataset seed jobs opt_level steps tenants period_us solves window max_sessions
      idle_timeout_ms queue json trace report =
    set_jobs jobs;
    check_outputs [ ("--trace", trace); ("--report", report) ];
    let dname, stream =
      match dataset with
      | `Manhattan ->
          ( "manhattan",
            Stream.manhattan ~cfg:{ Datasets.default_config with Datasets.steps; seed } () )
      | `Loopy -> ("loopy", Stream.loopy ~cfg:{ Stream.default_loopy_config with Stream.seed } ())
      | `Sphere ->
          ( "sphere",
            Stream.sphere
              ~cfg:{ Sphere.default_config with Sphere.rings = 4; poses_per_ring = 12; seed }
              () )
    in
    let period_s = period_us *. 1e-6 in
    let missions =
      List.init (max 1 tenants) (fun mid ->
          {
            Session.mid;
            stream;
            start_s = float_of_int mid *. period_s /. float_of_int (max 1 tenants);
            period_s;
            priority = Request.Normal;
            deadline_slack_s = 50e-3;
          })
    in
    let params =
      {
        Session.default_params with
        Session.max_sessions;
        idle_timeout_s = idle_timeout_ms *. 1e-3;
        window;
      }
    in
    let sessions = Session.create ~params ~opt_level ~missions () in
    let solve_trace =
      if solves <= 0 then []
      else
        Request.generate ~rng:(Rng.of_int seed)
          ~shape:(Request.Poisson { rate_hz = 20000.0 })
          ~apps:(List.map (fun (a : App.t) -> a.App.name) App.all)
          ~deadline_s:(1e-3, 4e-3) ~n:solves
    in
    let config = { Serve.default_config with Serve.queue_capacity = queue; opt_level } in
    let meta =
      std_meta
        [
          ("command", "sessions");
          ("dataset", dname);
          ("seed", string_of_int seed);
          ("tenants", string_of_int (max 1 tenants));
          ("ticks", string_of_int (Stream.length stream));
          ("period_us", Printf.sprintf "%g" period_us);
          ("solves", string_of_int (max 0 solves));
        ]
    in
    if trace <> None || report <> None then Obs.enable ();
    let r = Serve.run ~config ~sessions ~trace:solve_trace () in
    Option.iter
      (fun path ->
        write_output ~flag:"--trace" path (fun path ->
            Chrome_trace.write_file path
              (Chrome_trace.of_spans (Obs.spans ()) @ Serve.chrome_events r)))
      trace;
    Option.iter
      (fun path ->
        write_output ~flag:"--report" path
          (Report.write_file ~meta ~extra:[ ("serve", Serve.report_json r) ]))
      report;
    if json then
      print_endline
        (Orianna_obs.Json.to_string
           (Orianna_obs.Json.Obj [ ("meta", Report.meta_json meta); ("serve", Serve.report_json r) ]))
    else print_string (Serve.table r)
  in
  let term =
    Term.(const run $ dataset $ seed_flag $ jobs_flag $ opt_level_flag $ steps $ tenants
          $ period_us $ solves $ window $ max_sessions $ idle_timeout_ms $ queue $ json_flag
          $ trace_flag $ report_flag)
  in
  Cmd.v
    (Cmd.info "sessions"
       ~doc:"Replay streamed pose-graph missions as per-tenant sessions through the serving \
             runtime: each tick folds one measurement delta into the session's incremental \
             smoother and is charged the affected re-elimination work on the shared compiled \
             template program.")
    term

(* ---------------- chaos ---------------- *)

let chaos_cmd =
  let module FC = Orianna_fault.Fleet_chaos in
  let module Dispatch = Orianna_serve.Dispatch in
  let runs =
    Arg.(value & opt int FC.default_config.FC.runs
         & info [ "runs" ] ~docv:"N" ~doc:"Monte-Carlo serving runs (one chaos seed each).")
  in
  let requests =
    Arg.(value & opt int FC.default_config.FC.requests
         & info [ "requests" ] ~docv:"N" ~doc:"Trace length per run.")
  in
  let intensity =
    Arg.(value & opt float FC.default_config.FC.intensity
         & info [ "intensity" ] ~docv:"RATE"
             ~doc:"Target steady-state per-instance unavailability (chaos knob).")
  in
  let mttr =
    Arg.(value & opt float FC.default_config.FC.mttr_s
         & info [ "mttr" ] ~docv:"S" ~doc:"Mean time to restart a crashed instance, seconds.")
  in
  let retries =
    Arg.(value & opt int FC.default_config.FC.max_retries
         & info [ "retries" ] ~docv:"N" ~doc:"Retry budget per recovered request copy.")
  in
  let hedge =
    Arg.(value & flag & info [ "hedge" ] ~doc:"Hedge near-deadline retries.")
  in
  let instances =
    Arg.(value & opt int FC.default_config.FC.instances
         & info [ "instances" ] ~docv:"N" ~doc:"Accelerator fleet size.")
  in
  let policy =
    Arg.(value
         & opt (enum [ ("fifo", Dispatch.Fifo); ("edf", Dispatch.Edf); ("least-loaded", Dispatch.Least_loaded) ])
             FC.default_config.FC.policy
         & info [ "policy" ] ~doc:"Dispatch policy: fifo, edf or least-loaded.")
  in
  let json_flag =
    Arg.(value & flag
         & info [ "json" ]
             ~doc:"Print the campaign summary as JSON. The payload contains no timings, so it \
                   diffs byte-for-byte across job counts.")
  in
  let run apps seed jobs opt_level runs requests intensity mttr retries hedge instances
      policy json =
    set_jobs jobs;
    let apps = List.map (fun (a : App.t) -> a.App.name) apps in
    let config =
      {
        FC.default_config with
        FC.runs;
        requests;
        apps;
        intensity;
        mttr_s = mttr;
        max_retries = retries;
        hedge;
        instances;
        policy;
        opt_level;
      }
    in
    let summary = FC.run ~config ~rng:(Rng.of_int seed) () in
    if json then
      print_endline
        (Orianna_obs.Json.to_string
           (Orianna_obs.Json.Obj
              [
                ( "meta",
                  Report.meta_json
                    (std_meta
                       [
                         ("command", "chaos");
                         ("apps", String.concat "," apps);
                         ("seed", string_of_int seed);
                       ]) );
                ("chaos", FC.json summary);
              ]))
    else print_string (FC.table summary);
    if FC.silent_loss summary then begin
      Format.eprintf
        "SILENT LOSS: at least one run lost an admitted request without a structured outcome@.";
      exit 1
    end
  in
  let term =
    Term.(const run $ apps_flag $ seed_flag $ jobs_flag $ opt_level_flag $ runs $ requests
          $ intensity $ mttr $ retries $ hedge $ instances $ policy $ json_flag)
  in
  Cmd.v
    (Cmd.info "chaos"
       ~doc:"Monte-Carlo fleet fault-tolerance campaign: seeded serving runs under instance \
             crash/hang/transient/slowdown injection, reporting availability and \
             p99-under-faults; exits non-zero iff any admitted request is lost silently.")
    term

(* ---------------- gate ---------------- *)

let gate_cmd =
  let module Gate = Orianna_obs.Gate in
  let arg i docv doc = Arg.(required & pos i (some string) None & info [] ~docv ~doc) in
  let read file =
    try In_channel.with_open_bin file In_channel.input_all
    with Sys_error msg ->
      Format.eprintf "gate error: %s@." msg;
      exit 2
  in
  let run baseline key report =
    match
      Result.bind
        (Gate.load ~file:baseline ~key (read baseline))
        (fun checks -> Gate.check ~file:report ~key checks (read report))
    with
    | Error e ->
        Format.eprintf "gate error: %s@." (Gate.error_message e);
        exit 2
    | Ok verdicts ->
        List.iter (fun v -> print_endline (Gate.verdict_line ~key v)) verdicts;
        if not (List.for_all Gate.passed verdicts) then exit 1
  in
  Cmd.v
    (Cmd.info "gate"
       ~doc:"Check a JSON report against the checks listed under KEY in a baseline file: one \
             verdict line per check; exits 1 on a regression and 2 on a malformed or \
             unreadable file.")
    Term.(const run
          $ arg 0 "BASELINE" "Baseline file mapping keys to lists of checks."
          $ arg 1 "KEY" "Which baseline entry to check (an apps key, a dataset, ...)."
          $ arg 2 "REPORT" "JSON report to check, e.g. a saved $(b,serve --json).")

(* ---------------- experiments ---------------- *)

let experiments_cmd =
  let missions = Arg.(value & opt int 30 & info [ "missions" ] ~docv:"N" ~doc:"Missions for Tbl. 5.") in
  let only =
    Arg.(value & opt (some string) None
         & info [ "only" ] ~docv:"ID"
             ~doc:"Run a single experiment: table1, table4, table5, fig13..fig20, breakdown,                    frame-rates, ablations, robust, manhattan, faults, serve.")
  in
  let run missions jobs only trace report =
    set_jobs jobs;
    with_obs ~trace ~report ~meta:[ ("command", "experiments") ] @@ fun () ->
    (match only with
    | None -> Experiments.run_all ~missions ()
    | Some id -> (
        let needs_ctx f =
          let ctx = Experiments.make_context () in
          print_string (f ctx)
        in
        match String.lowercase_ascii id with
        | "table1" -> print_string (Experiments.table1 ())
        | "table4" -> print_string (Experiments.table4 ())
        | "table5" -> print_string (Experiments.table5 ~missions ())
        | "fig13" -> needs_ctx Experiments.fig13
        | "fig14" -> needs_ctx Experiments.fig14
        | "fig15" -> needs_ctx Experiments.fig15
        | "fig16" -> needs_ctx Experiments.fig16
        | "fig17" -> needs_ctx Experiments.fig17
        | "fig18" -> needs_ctx Experiments.fig18
        | "fig19" -> needs_ctx Experiments.fig19
        | "fig20" -> needs_ctx Experiments.fig20
        | "breakdown" -> needs_ctx Experiments.breakdown
        | "frame-rates" | "framerates" -> needs_ctx Experiments.frame_rates
        | "ablations" -> needs_ctx Experiments.ablations
        | "robust" -> print_string (Experiments.extension_robust ())
        | "manhattan" -> print_string (Experiments.extension_manhattan ())
        | "faults" -> print_string (Experiments.extension_faults ~missions:16 ())
        | "serve" -> print_string (Experiments.extension_serve ())
        | other -> Format.eprintf "unknown experiment %S@." other));
    []
  in
  Cmd.v
    (Cmd.info "experiments" ~doc:"Regenerate every table and figure of the evaluation.")
    Term.(const run $ missions $ jobs_flag $ only $ trace_flag $ report_flag)

let () =
  (* ORIANNA_LOG=debug|info enables library logging. *)
  (match Sys.getenv_opt "ORIANNA_LOG" with
  | Some level ->
      Logs.set_reporter (Logs_fmt.reporter ());
      Logs.set_level
        (match String.lowercase_ascii level with
        | "debug" -> Some Logs.Debug
        | "info" -> Some Logs.Info
        | _ -> Some Logs.Warning)
  | None -> ());
  let default = Term.(ret (const (`Help (`Pager, None)))) in
  let info = Cmd.info "orianna" ~version:"1.0.0" ~doc:"Accelerator generation for optimization-based robotics." in
  let code =
    Cmd.eval (Cmd.group ~default info
      [ solve_cmd; compile_cmd; generate_cmd; simulate_cmd; trace_cmd; profile_cmd; image_cmd; mission_cmd; sphere_cmd; g2o_cmd; faults_cmd; serve_cmd; sessions_cmd; chaos_cmd; gate_cmd; experiments_cmd ])
  in
  (* Usage errors (an unknown app, a bad flag value) exit 2, like every
     other rejected input. *)
  exit (if code = Cmd.Exit.cli_error then 2 else code)
