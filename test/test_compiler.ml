open Orianna_linalg
open Orianna_lie
open Orianna_fg
open Orianna_factors
open Orianna_isa
open Orianna_util
module Compile = Orianna_compiler.Compile

let check_vec msg ?(eps = 1e-8) a b =
  if not (Vec.equal ~eps a b) then
    Alcotest.failf "%s: %a vs %a" msg (fun ppf -> Vec.pp ppf) a (fun ppf -> Vec.pp ppf) b

(* A small 3D localization graph mixing symbolic and native factors. *)
let slam3d_graph seed =
  let rng = Rng.of_int seed in
  let truth =
    Array.init 4 (fun i ->
        Pose3.of_phi_t
          [| 0.0; 0.0; 0.4 *. float_of_int i |]
          [| float_of_int i; 0.5 *. float_of_int i; 0.0 |])
  in
  let landmark = [| 2.0; -1.0; 1.5 |] in
  let g = Graph.create () in
  Array.iteri
    (fun i p ->
      let noise = Array.init 6 (fun _ -> Rng.gaussian_sigma rng ~sigma:0.08) in
      Graph.add_variable g (Printf.sprintf "x%d" i) (Var.Pose3 (Pose3.retract p noise)))
    truth;
  Graph.add_variable g "l0" (Var.Vector (Vec.add landmark [| 0.1; -0.1; 0.05 |]));
  Graph.add_factor g (Pose_factors.prior3 ~name:"prior" ~var:"x0" ~z:truth.(0) ~sigma:0.01);
  for i = 0 to 2 do
    let z = Pose3.ominus truth.(i + 1) truth.(i) in
    Graph.add_factor g
      (Pose_factors.between3
         ~name:(Printf.sprintf "odo%d" i)
         ~a:(Printf.sprintf "x%d" i)
         ~b:(Printf.sprintf "x%d" (i + 1))
         ~z ~sigma:0.05)
  done;
  Graph.add_factor g (Pose_factors.gps3 ~name:"gps" ~var:"x2" ~z:(Pose3.translation truth.(2)) ~sigma:0.1);
  Array.iteri
    (fun i p ->
      let z = Mat.mul_vec (Mat.transpose (Pose3.rotation p)) (Vec.sub landmark (Pose3.translation p)) in
      Graph.add_factor g
        (Pose_factors.lidar_landmark3 ~name:(Printf.sprintf "lidar%d" i) ~pose:(Printf.sprintf "x%d" i)
           ~landmark:"l0" ~z ~sigma:0.05))
    truth;
  g

(* A control graph with native factors only. *)
let control_graph () =
  let g = Graph.create () in
  let a_mat, b_mat = Motion_factors.double_integrator ~d:2 ~dt:0.1 in
  let horizon = 4 in
  for k = 0 to horizon do
    Graph.add_variable g (Printf.sprintf "x%d" k) (Var.Vector (Vec.create 4))
  done;
  for k = 0 to horizon - 1 do
    Graph.add_variable g (Printf.sprintf "u%d" k) (Var.Vector (Vec.create 2))
  done;
  Graph.add_factor g
    (Motion_factors.state_cost ~name:"init" ~var:"x0" ~target:[| 1.0; 1.0; 0.0; 0.0 |]
       ~sigmas:(Array.make 4 0.001));
  for k = 0 to horizon - 1 do
    Graph.add_factor g
      (Motion_factors.dynamics ~name:(Printf.sprintf "dyn%d" k) ~x_prev:(Printf.sprintf "x%d" k)
         ~u:(Printf.sprintf "u%d" k)
         ~x_next:(Printf.sprintf "x%d" (k + 1))
         ~a_mat ~b_mat ~sigma:0.01);
    Graph.add_factor g
      (Motion_factors.input_cost ~name:(Printf.sprintf "cost-u%d" k) ~var:(Printf.sprintf "u%d" k)
         ~sigmas:(Array.make 2 1.0))
  done;
  Graph.add_factor g
    (Motion_factors.goal ~name:"goal" ~var:(Printf.sprintf "x%d" horizon)
       ~target:[| 0.0; 0.0; 0.0; 0.0 |] ~sigma:0.01);
  g

let compiled_matches_solver graph ordering =
  let program = Compile.compile ~ordering graph in
  Program.validate program;
  let compiled = Program.run program in
  let reference = Optimizer.solve_once ~ordering graph in
  List.iter
    (fun (v, d) -> check_vec ("delta " ^ v) ~eps:1e-7 (List.assoc v reference) d)
    compiled

let test_compiled_slam3d_matches () =
  List.iter
    (fun seed ->
      List.iter (compiled_matches_solver (slam3d_graph seed))
        [ Ordering.Natural; Ordering.Min_degree; Ordering.Reverse ])
    [ 1; 7 ]

let test_compiled_control_matches () = compiled_matches_solver (control_graph ()) Ordering.Min_degree

let test_compiled_camera_graph_matches () =
  (* Native camera factors in the loop. *)
  let g = Graph.create () in
  let pose = Pose3.of_phi_t [| 0.02; -0.05; 0.1 |] [| 0.1; 0.2; 0.0 |] in
  let lm = [| 0.5; -0.3; 4.0 |] in
  Graph.add_variable g "x0" (Var.Pose3 pose);
  Graph.add_variable g "l0" (Var.Vector (Vec.add lm [| 0.2; 0.1; -0.3 |]));
  Graph.add_factor g (Pose_factors.prior3 ~name:"prior" ~var:"x0" ~z:pose ~sigma:0.001);
  let k = Vision_factors.default_intrinsics in
  List.iter
    (fun (dx, name) ->
      let p = Pose3.retract pose [| 0.0; 0.0; 0.0; dx; 0.0; 0.0 |] in
      let p_cam = Mat.mul_vec (Mat.transpose (Pose3.rotation p)) (Vec.sub lm (Pose3.translation p)) in
      let z = Vision_factors.project k p_cam in
      Graph.add_variable g name (Var.Pose3 p);
      Graph.add_factor g (Pose_factors.between3 ~name:("odo" ^ name) ~a:"x0" ~b:name
           ~z:(Pose3.ominus p pose) ~sigma:0.01);
      Graph.add_factor g (Vision_factors.camera ~name:("cam" ^ name) ~pose:name ~landmark:"l0" ~z ~sigma:1.0 ()))
    [ (0.5, "x1"); (-0.5, "x2") ];
  Graph.add_factor g
    (Vision_factors.camera ~name:"cam0" ~pose:"x0" ~landmark:"l0"
       ~z:(Vision_factors.project k (Mat.mul_vec (Mat.transpose (Pose3.rotation pose)) (Vec.sub lm (Pose3.translation pose))))
       ~sigma:1.0 ());
  compiled_matches_solver g Ordering.Min_degree

let test_iterate_converges_like_optimizer () =
  let g1 = slam3d_graph 3 in
  let g2 = slam3d_graph 3 in
  let report = Optimizer.optimize ~params:{ Optimizer.default_params with ordering = Ordering.Min_degree } g1 in
  let iters = Compile.iterate ~ordering:Ordering.Min_degree g2 in
  Alcotest.(check bool) "iterations sane" true (iters <= 25);
  (* Both paths must land on the same optimum. *)
  List.iter
    (fun v ->
      let d = Var.distance (Graph.value g1 v) (Graph.value g2 v) in
      Alcotest.(check bool) (Printf.sprintf "same optimum at %s (%g)" v d) true (d < 1e-6))
    (Graph.variables g1);
  Alcotest.(check bool) "converged reference" true report.Optimizer.converged

let test_compile_iterations_matches_stepwise () =
  (* The unrolled multi-iteration program (with on-accelerator update
     phases) ends where step-by-step recompilation ends: its outputs
     are the deltas the software solver computes after k-1 applied
     iterations. *)
  List.iter
    (fun iterations ->
      let g_prog = slam3d_graph 21 in
      let program = Compile.compile_iterations ~iterations g_prog in
      Program.validate program;
      let unrolled = Program.run program in
      (* Reference: apply k-1 software GN steps, then one more solve. *)
      let g_ref = slam3d_graph 21 in
      for _ = 1 to iterations - 1 do
        let deltas = Optimizer.solve_once ~ordering:Ordering.Min_degree g_ref in
        List.iter
          (fun (v, d) -> Graph.set_value g_ref v (Var.retract (Graph.value g_ref v) d))
          deltas
      done;
      let reference = Optimizer.solve_once ~ordering:Ordering.Min_degree g_ref in
      List.iter
        (fun (v, d) ->
          check_vec (Printf.sprintf "iter %d delta %s" iterations v) ~eps:1e-6
            (List.assoc v reference) d)
        unrolled)
    [ 1; 2; 3 ]

let test_compile_iterations_grows_linearly () =
  let g = slam3d_graph 23 in
  let one = Program.length (Compile.compile_iterations ~iterations:1 g) in
  let three = Program.length (Compile.compile_iterations ~iterations:3 g) in
  Alcotest.(check bool)
    (Printf.sprintf "3 iterations ~ 3x instructions (%d vs %d)" one three)
    true
    (three > 2 * one && three < 4 * one)

let test_compile_iterations_rejects_zero () =
  Alcotest.check_raises "zero iterations"
    (Orianna_util.Error.Error
       {
         Orianna_util.Error.phase = Orianna_util.Error.Compile;
         context = [ "compile_iterations" ];
         message = "need at least one iteration";
       })
    (fun () -> ignore (Compile.compile_iterations ~iterations:0 (slam3d_graph 1)))

let test_program_structure () =
  let g = slam3d_graph 5 in
  let p = Compile.compile g in
  let s = Program.stats p in
  Alcotest.(check bool) "has instructions" true (s.Program.instructions > 50);
  let phase_count ph = Option.value ~default:0 (List.assoc_opt ph s.Program.by_phase) in
  Alcotest.(check bool) "construct phase" true (phase_count Instr.Construct > 0);
  Alcotest.(check bool) "decompose phase" true (phase_count Instr.Decompose > 0);
  Alcotest.(check bool) "backsub phase" true (phase_count Instr.Backsub > 0);
  Alcotest.(check bool) "has QR ops" true (List.mem_assoc "QR" s.Program.by_opcode);
  Alcotest.(check bool) "parallel width > 1" true (s.Program.max_width > 1);
  Alcotest.(check bool) "critical path shorter than program" true
    (s.Program.critical_path < s.Program.instructions)

let test_cse_shares_transposes () =
  (* Two between factors sharing variable x1: Rᵀ(x1) appears in both
     forward passes and again in the backward passes — value numbering
     must collapse the duplicates within one factor's stream. *)
  let g = slam3d_graph 9 in
  let p = Compile.compile g in
  let s = Program.stats p in
  let rt = Option.value ~default:0 (List.assoc_opt "RT" s.Program.by_opcode) in
  (* 4 between/prior-style factors with shared subexpressions: without
     CSE this would be far larger. *)
  Alcotest.(check bool) (Printf.sprintf "few RT ops (%d)" rt) true (rt <= 24)

let test_concat_and_application () =
  let loc = slam3d_graph 11 in
  let ctrl = control_graph () in
  let p = Compile.compile_application [ ("loc", loc); ("ctrl", ctrl) ] in
  Program.validate p;
  let deltas = Program.run p in
  let ref_loc = Optimizer.solve_once ~ordering:Ordering.Min_degree loc in
  let ref_ctrl = Optimizer.solve_once ~ordering:Ordering.Min_degree ctrl in
  List.iter
    (fun (v, d) -> check_vec ("loc/" ^ v) ~eps:1e-7 d (List.assoc ("loc/" ^ v) deltas))
    ref_loc;
  List.iter
    (fun (v, d) -> check_vec ("ctrl/" ^ v) ~eps:1e-7 d (List.assoc ("ctrl/" ^ v) deltas))
    ref_ctrl;
  (* Both algorithm ids present, for coarse-grained OoO. *)
  let algos =
    Array.fold_left (fun acc (i : Instr.t) -> if List.mem i.Instr.algo acc then acc else i.Instr.algo :: acc)
      [] p.Program.instrs
  in
  Alcotest.(check int) "two algorithms" 2 (List.length algos)

let test_op_sizes_census () =
  let g = slam3d_graph 13 in
  let p = Compile.compile g in
  let decompose_sizes = Program.op_sizes p ~phase:Instr.Decompose () in
  Alcotest.(check bool) "decompose ops exist" true (List.length decompose_sizes > 0);
  (* Factor-graph elimination works on small dense blocks: nothing
     anywhere near the full dense system size. *)
  List.iter
    (fun (r, c) -> Alcotest.(check bool) "small blocks" true (r <= 40 && c <= 40))
    decompose_sizes

let test_validate_rejects_bad_program () =
  let bad =
    {
      Program.instrs =
        [|
          {
            Instr.id = 0;
            op = Instr.Vadd;
            srcs = [| 1 |];
            rows = 1;
            cols = 1;
            phase = Instr.Construct;
            algo = 0;
            tag = "";
          };
        |];
      outputs = [];
    }
  in
  Alcotest.(check bool) "rejects future read" true
    (try
       Program.validate bad;
       false
     with Failure _ -> true)

let test_op_counters_per_opcode () =
  (* Program counters are per opcode, never per kernel name: at most
     one compile.op.* counter per [Instr.opcode] constructor (18), and
     together they count every compiled instruction. *)
  let module Obs = Orianna_obs.Obs in
  let module App = Orianna_apps.App in
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable (fun () ->
      List.iter
        (fun (app : App.t) -> ignore (Compile.compile_application (app.App.graphs (Rng.of_int 42))))
        App.all;
      let ops =
        List.filter
          (fun (name, _) -> String.starts_with ~prefix:"compile.op." name)
          (Obs.counters ())
      in
      Alcotest.(check bool)
        (Printf.sprintf "%d op counters <= 18 opcodes" (List.length ops))
        true
        (List.length ops <= 18);
      Alcotest.(check int) "op counters sum to compile.instructions"
        (Obs.counter "compile.instructions")
        (List.fold_left (fun acc (_, n) -> acc + n) 0 ops))

let () =
  Alcotest.run "compiler"
    [
      ( "correctness",
        [
          Alcotest.test_case "slam3d matches solver" `Quick test_compiled_slam3d_matches;
          Alcotest.test_case "control matches solver" `Quick test_compiled_control_matches;
          Alcotest.test_case "camera graph matches" `Quick test_compiled_camera_graph_matches;
          Alcotest.test_case "iterate converges" `Quick test_iterate_converges_like_optimizer;
          Alcotest.test_case "unrolled iterations match" `Quick test_compile_iterations_matches_stepwise;
          Alcotest.test_case "unrolled growth" `Quick test_compile_iterations_grows_linearly;
          Alcotest.test_case "rejects zero iterations" `Quick test_compile_iterations_rejects_zero;
        ] );
      ( "structure",
        [
          Alcotest.test_case "phases and stats" `Quick test_program_structure;
          Alcotest.test_case "CSE shares transposes" `Quick test_cse_shares_transposes;
          Alcotest.test_case "application concat" `Quick test_concat_and_application;
          Alcotest.test_case "op size census" `Quick test_op_sizes_census;
          Alcotest.test_case "validate rejects bad" `Quick test_validate_rejects_bad_program;
          Alcotest.test_case "op counters per opcode" `Quick test_op_counters_per_opcode;
        ] );
    ]
