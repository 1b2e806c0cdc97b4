open Orianna_linalg
open Orianna_lie
open Orianna_fg
open Orianna_util
module Expr = Orianna_ir.Expr

let check_vec msg ?(eps = 1e-8) a b =
  if not (Vec.equal ~eps a b) then
    Alcotest.failf "%s: %a vs %a" msg (fun ppf -> Vec.pp ppf) a (fun ppf -> Vec.pp ppf) b

(* Simple native factor: prior on a vector variable (v - z). *)
let vector_prior ~name ~var ~z ~sigma =
  let d = Vec.dim z in
  Factor.native ~name ~vars:[ var ] ~sigmas:(Array.make d sigma) ~error_dim:d (fun lookup ->
      match lookup var with
      | Var.Vector v -> (Vec.sub v z, [ (var, Mat.identity d) ])
      | Var.Pose2 _ | Var.Pose3 _ | Var.Se3 _ -> invalid_arg "vector_prior: pose")

(* Native factor: difference of two vector variables vs measurement. *)
let vector_between ~name ~a ~b ~z ~sigma =
  let d = Vec.dim z in
  Factor.native ~name ~vars:[ a; b ] ~sigmas:(Array.make d sigma) ~error_dim:d (fun lookup ->
      match (lookup a, lookup b) with
      | Var.Vector va, Var.Vector vb ->
          (Vec.sub (Vec.sub vb va) z, [ (a, Mat.neg (Mat.identity d)); (b, Mat.identity d) ])
      | _ -> invalid_arg "vector_between: pose")

(* Symbolic pose3 between factor. *)
let pose3_between ~name ~a ~b ~z ~sigma =
  let exprs =
    Expr.between_error ~pose_dim:3 ~x_i:b ~x_j:a ~z_rot:(Pose3.rotation z)
      ~z_trans:(Pose3.translation z)
  in
  Factor.symbolic ~name ~vars:[ a; b ] ~sigmas:(Array.make 6 sigma) exprs

(* Symbolic pose3 prior. *)
let pose3_prior ~name ~var ~z ~sigma =
  let exprs =
    Expr.between_error ~pose_dim:3 ~x_i:var ~x_j:"__anchor" ~z_rot:(Pose3.rotation z)
      ~z_trans:(Pose3.translation z)
  in
  (* Substituting the anchor by constants: easier to just use a native factor. *)
  ignore exprs;
  Factor.native ~name ~vars:[ var ] ~sigmas:(Array.make 6 sigma) ~error_dim:6 (fun lookup ->
      match lookup var with
      | Var.Pose3 p ->
          let e_rot = So3.log (Mat.mul (Mat.transpose (Pose3.rotation z)) (Pose3.rotation p)) in
          let e_trans = Vec.sub (Pose3.translation p) (Pose3.translation z) in
          let j = Mat.create 6 6 in
          Mat.set_block j 0 0 (So3.jr_inv e_rot);
          Mat.set_block j 3 3 (Mat.identity 3);
          (Vec.concat [ e_rot; e_trans ], [ (var, j) ])
      | Var.Pose2 _ | Var.Se3 _ | Var.Vector _ -> invalid_arg "pose3_prior: not a pose3")

(* ---------- Var ---------- *)

let test_var_dims () =
  Alcotest.(check int) "pose2" 3 (Var.dim (Var.Pose2 Pose2.identity));
  Alcotest.(check int) "pose3" 6 (Var.dim (Var.Pose3 Pose3.identity));
  Alcotest.(check int) "vector" 4 (Var.dim (Var.Vector (Vec.create 4)))

let test_var_retract_local () =
  let rng = Rng.of_int 5 in
  let vals =
    [
      Var.Pose2 (Pose2.random rng ~scale:1.0);
      Var.Pose3 (Pose3.random rng ~scale:1.0);
      Var.Vector [| 1.0; 2.0 |];
    ]
  in
  List.iter
    (fun v ->
      let d = Array.init (Var.dim v) (fun i -> 0.1 *. float_of_int (i + 1)) in
      let w = Var.retract v d in
      check_vec "retract/local" ~eps:1e-8 d (Var.local v w))
    vals

let test_var_kind_mismatch () =
  Alcotest.check_raises "local mismatch" (Invalid_argument "Var.local: kind mismatch") (fun () ->
      ignore (Var.local (Var.Vector [| 1.0 |]) (Var.Pose2 Pose2.identity)))

(* ---------- Graph ---------- *)

let test_graph_duplicate_variable () =
  let g = Graph.create () in
  Graph.add_variable g "x" (Var.Vector [| 0.0 |]);
  Alcotest.check_raises "duplicate" (Invalid_argument "Graph.add_variable: duplicate x") (fun () ->
      Graph.add_variable g "x" (Var.Vector [| 0.0 |]))

let test_graph_unknown_factor_var () =
  let g = Graph.create () in
  Alcotest.check_raises "unknown var"
    (Invalid_argument "Graph.add_factor: factor prior uses unknown variable x") (fun () ->
      Graph.add_factor g (vector_prior ~name:"prior" ~var:"x" ~z:[| 0.0 |] ~sigma:1.0))

let test_graph_error () =
  let g = Graph.create () in
  Graph.add_variable g "x" (Var.Vector [| 3.0 |]);
  Graph.add_factor g (vector_prior ~name:"prior" ~var:"x" ~z:[| 1.0 |] ~sigma:2.0);
  (* whitened error = (3-1)/2 = 1, squared = 1. *)
  Alcotest.(check (float 1e-12)) "error" 1.0 (Graph.error g)

(* ---------- Ordering ---------- *)

let test_ordering_permutations () =
  let vars = [ "a"; "b"; "c" ] in
  let scopes = [ [ "a"; "b" ]; [ "b"; "c" ] ] in
  List.iter
    (fun s ->
      let order = Ordering.compute s ~vars ~factor_scopes:scopes in
      Alcotest.(check int) "length" 3 (List.length order);
      List.iter
        (fun v -> Alcotest.(check bool) ("contains " ^ v) true (List.mem v order))
        vars)
    [ Ordering.Natural; Ordering.Reverse; Ordering.Min_degree ]

let test_min_degree_prefers_leaves () =
  (* A star graph: the hub has degree 3, the spokes 1 — spokes first. *)
  let vars = [ "hub"; "s1"; "s2"; "s3" ] in
  let scopes = [ [ "hub"; "s1" ]; [ "hub"; "s2" ]; [ "hub"; "s3" ] ] in
  let order = Ordering.compute Ordering.Min_degree ~vars ~factor_scopes:scopes in
  (* The hub starts with degree 3: it cannot be eliminated before the
     spokes have brought its degree down. *)
  Alcotest.(check bool) "spoke first" true (List.hd order <> "hub");
  Alcotest.(check bool) "hub after two spokes" true
    (List.nth order 0 <> "hub" && List.nth order 1 <> "hub")

(* ---------- Elimination vs dense solve ---------- *)

let random_chain_graph seed n =
  let rng = Rng.of_int seed in
  let g = Graph.create () in
  for i = 0 to n - 1 do
    Graph.add_variable g
      (Printf.sprintf "x%d" i)
      (Var.Vector (Array.init 2 (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0)))
  done;
  Graph.add_factor g (vector_prior ~name:"p0" ~var:"x0" ~z:[| 0.1; -0.2 |] ~sigma:0.5);
  for i = 0 to n - 2 do
    let z = Array.init 2 (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
    Graph.add_factor g
      (vector_between
         ~name:(Printf.sprintf "b%d" i)
         ~a:(Printf.sprintf "x%d" i)
         ~b:(Printf.sprintf "x%d" (i + 1))
         ~z ~sigma:0.3)
  done;
  (* A couple of loop closures to create fill-in. *)
  if n > 4 then begin
    Graph.add_factor g
      (vector_between ~name:"loop1" ~a:"x0"
         ~b:(Printf.sprintf "x%d" (n - 1))
         ~z:[| 0.05; 0.05 |] ~sigma:0.4);
    Graph.add_factor g (vector_between ~name:"loop2" ~a:"x1" ~b:"x3" ~z:[| -0.1; 0.2 |] ~sigma:0.4)
  end;
  g

let deltas_of_dense g =
  let order = Graph.variables g in
  Linear_system.dense_solve ~var_order:order ~dims:(Graph.dims g) (Graph.linearize g)

let deltas_of_elimination g strategy =
  let order =
    Ordering.compute strategy ~vars:(Graph.variables g) ~factor_scopes:(Graph.factor_scopes g)
  in
  Elimination.solve ~order ~dims:(Graph.dims g) (Graph.linearize g)

let test_elimination_matches_dense () =
  List.iter
    (fun seed ->
      let g = random_chain_graph seed 6 in
      let dense = deltas_of_dense g in
      List.iter
        (fun strategy ->
          let sparse = deltas_of_elimination g strategy in
          List.iter
            (fun (v, d) ->
              check_vec
                (Printf.sprintf "delta %s (%s)" v (Ordering.strategy_name strategy))
                ~eps:1e-7 (List.assoc v dense) d)
            sparse)
        [ Ordering.Natural; Ordering.Reverse; Ordering.Min_degree ])
    [ 1; 2; 3 ]

let test_elimination_census () =
  let g = random_chain_graph 7 6 in
  let order = Graph.variables g in
  let result = Elimination.eliminate ~order ~dims:(Graph.dims g) (Graph.linearize g) in
  Alcotest.(check int) "one census entry per variable" 6 (List.length result.census);
  List.iter
    (fun (e : Elimination.census_entry) ->
      Alcotest.(check bool) "small dense blocks" true (e.rows <= 12 && e.cols <= 13);
      Alcotest.(check bool) "dense" true (e.density > 0.3))
    result.census

let test_elimination_r_is_triangular () =
  let g = random_chain_graph 11 5 in
  let order = Graph.variables g in
  let result = Elimination.eliminate ~order ~dims:(Graph.dims g) (Graph.linearize g) in
  let r = Elimination.r_matrix ~order ~dims:(Graph.dims g) result in
  Alcotest.(check bool) "R upper triangular" true (Mat.is_upper_triangular ~eps:1e-9 r);
  (* R^T R must equal the dense A^T A (information matrix). *)
  let asm =
    Linear_system.assemble ~var_order:order ~dims:(Graph.dims g) (Graph.linearize g)
  in
  let a, _ = Assembly.to_dense asm in
  let lhs = Mat.mul (Mat.transpose r) r in
  let rhs = Mat.mul (Mat.transpose a) a in
  if not (Mat.equal ~eps:1e-7 lhs rhs) then Alcotest.fail "RtR != AtA"

let test_cholesky_matches_qr () =
  List.iter
    (fun seed ->
      let g = random_chain_graph seed 6 in
      let order = Graph.variables g in
      let lin = Graph.linearize g in
      let qr = Elimination.solve ~method_:Elimination.Qr ~order ~dims:(Graph.dims g) lin in
      let ch = Elimination.solve ~method_:Elimination.Cholesky ~order ~dims:(Graph.dims g) lin in
      List.iter
        (fun (v, d) -> check_vec ("cholesky delta " ^ v) ~eps:1e-6 (List.assoc v qr) d)
        ch)
    [ 4; 5; 6 ]

let test_cholesky_cheaper () =
  (* Cholesky forms the small Hessian instead of orthogonalizing the
     tall Abar: fewer effective MACs on overdetermined frontals. *)
  let g = random_chain_graph 8 8 in
  let order = Graph.variables g in
  let lin = Graph.linearize g in
  let macs m =
    Macs.reset ();
    ignore (Elimination.solve ~method_:m ~order ~dims:(Graph.dims g) lin);
    Macs.count ()
  in
  let qr = macs Elimination.Qr and ch = macs Elimination.Cholesky in
  Alcotest.(check bool) (Printf.sprintf "cholesky %d < qr %d" ch qr) true (ch < qr)

let test_cholesky_pose_graph () =
  (* Full nonlinear pose-graph optimization through the Cholesky path. *)
  let rng = Rng.of_int 91 in
  let truth =
    Array.init 4 (fun i -> Pose3.of_phi_t [| 0.0; 0.1 *. float_of_int i; 0.0 |] [| float_of_int i; 0.0; 0.5 |])
  in
  let g = Graph.create () in
  Array.iteri
    (fun i p ->
      Graph.add_variable g (Printf.sprintf "x%d" i)
        (Var.Pose3 (Pose3.retract p (Array.init 6 (fun _ -> Rng.gaussian_sigma rng ~sigma:0.05)))))
    truth;
  Graph.add_factor g (pose3_prior ~name:"prior" ~var:"x0" ~z:truth.(0) ~sigma:0.01);
  for i = 0 to 2 do
    Graph.add_factor g
      (pose3_between ~name:(Printf.sprintf "o%d" i) ~a:(Printf.sprintf "x%d" i)
         ~b:(Printf.sprintf "x%d" (i + 1)) ~z:(Pose3.ominus truth.(i + 1) truth.(i)) ~sigma:0.05)
  done;
  let params = { Optimizer.default_params with factorization = Elimination.Cholesky } in
  let report = Optimizer.optimize ~params g in
  Alcotest.(check bool) "converged" true report.Optimizer.converged;
  Alcotest.(check bool) "tiny error" true (report.Optimizer.final_error < 1e-9)

let test_elimination_underconstrained () =
  let g = Graph.create () in
  Graph.add_variable g "x" (Var.Vector [| 0.0 |]);
  Graph.add_variable g "y" (Var.Vector [| 0.0 |]);
  Graph.add_factor g (vector_prior ~name:"p" ~var:"x" ~z:[| 0.0 |] ~sigma:1.0);
  Alcotest.(check bool) "raises underconstrained" true
    (try
       ignore (Elimination.solve ~order:(Graph.variables g) ~dims:(Graph.dims g) (Graph.linearize g));
       false
     with Elimination.Underconstrained v -> v = "y")

(* ---------- Optimizer ---------- *)

let test_optimizer_linear_problem_one_step () =
  (* Purely linear problem: GN converges in one iteration. *)
  let g = random_chain_graph 21 5 in
  let report = Optimizer.optimize ~params:{ Optimizer.default_params with max_iterations = 5 } g in
  Alcotest.(check bool) "converged" true report.Optimizer.converged;
  Alcotest.(check bool) "few iterations" true (report.Optimizer.iterations <= 2);
  Alcotest.(check bool) "near zero gradient step" true (report.Optimizer.final_error < report.Optimizer.initial_error +. 1e-12)

let test_optimizer_pose3_chain () =
  (* Three poses, prior on the first, noisy odometry between them.
     With exact measurements the optimizer must recover the chain. *)
  let rng = Rng.of_int 31 in
  let truth = Array.init 4 (fun i -> Pose3.of_phi_t [| 0.0; 0.0; 0.3 *. float_of_int i |] [| float_of_int i; 0.0; 0.0 |]) in
  let g = Graph.create () in
  Array.iteri
    (fun i p ->
      (* Perturbed initial estimates. *)
      let noise = Array.init 6 (fun _ -> Rng.gaussian_sigma rng ~sigma:0.1) in
      Graph.add_variable g (Printf.sprintf "x%d" i) (Var.Pose3 (Pose3.retract p noise)))
    truth;
  Graph.add_factor g (pose3_prior ~name:"prior" ~var:"x0" ~z:truth.(0) ~sigma:0.01);
  for i = 0 to 2 do
    let z = Pose3.ominus truth.(i + 1) truth.(i) in
    Graph.add_factor g
      (pose3_between
         ~name:(Printf.sprintf "odo%d" i)
         ~a:(Printf.sprintf "x%d" i)
         ~b:(Printf.sprintf "x%d" (i + 1))
         ~z ~sigma:0.05)
  done;
  let report = Optimizer.optimize g in
  Alcotest.(check bool) "converged" true report.Optimizer.converged;
  Alcotest.(check bool) "tiny error" true (report.Optimizer.final_error < 1e-10);
  Array.iteri
    (fun i p ->
      match Graph.value g (Printf.sprintf "x%d" i) with
      | Var.Pose3 q ->
          Alcotest.(check bool)
            (Printf.sprintf "pose %d recovered" i)
            true
            (Pose3.distance p q < 1e-5 && Pose3.angular_distance p q < 1e-5)
      | Var.Pose2 _ | Var.Se3 _ | Var.Vector _ -> Alcotest.fail "wrong kind")
    truth

let test_optimizer_lm_on_bad_init () =
  (* Large initial perturbations: plain GN can overshoot; LM must converge. *)
  let rng = Rng.of_int 77 in
  let truth = Array.init 5 (fun i -> Pose3.of_phi_t [| 0.0; 0.2 *. float_of_int i; 0.0 |] [| float_of_int i; 1.0; 0.0 |]) in
  let g = Graph.create () in
  Array.iteri
    (fun i p ->
      let noise = Array.init 6 (fun k -> if k < 3 then Rng.gaussian_sigma rng ~sigma:0.4 else Rng.gaussian_sigma rng ~sigma:1.0) in
      Graph.add_variable g (Printf.sprintf "x%d" i) (Var.Pose3 (Pose3.retract p noise)))
    truth;
  Graph.add_factor g (pose3_prior ~name:"prior" ~var:"x0" ~z:truth.(0) ~sigma:0.01);
  for i = 0 to 3 do
    let z = Pose3.ominus truth.(i + 1) truth.(i) in
    Graph.add_factor g
      (pose3_between ~name:(Printf.sprintf "odo%d" i) ~a:(Printf.sprintf "x%d" i)
         ~b:(Printf.sprintf "x%d" (i + 1)) ~z ~sigma:0.05)
  done;
  let params =
    { Optimizer.default_params with method_ = Optimizer.Levenberg_marquardt; max_iterations = 60 }
  in
  let report = Optimizer.optimize ~params g in
  Alcotest.(check bool)
    (Printf.sprintf "error reduced to %g" report.Optimizer.final_error)
    true
    (report.Optimizer.final_error < 1e-6)

let test_optimizer_macs_counted () =
  let g = random_chain_graph 41 4 in
  let report = Optimizer.optimize g in
  Alcotest.(check bool) "macs recorded" true (report.Optimizer.macs > 0)

(* ---------- Robust losses ---------- *)

let test_robust_weights () =
  Alcotest.(check (float 1e-12)) "trivial" 1.0 (Robust.weight Robust.Trivial 100.0);
  Alcotest.(check (float 1e-12)) "huber inside" 1.0 (Robust.weight (Robust.Huber 2.0) 1.0);
  Alcotest.(check (float 1e-12)) "huber outside" 0.5 (Robust.weight (Robust.Huber 2.0) 4.0);
  Alcotest.(check (float 1e-12)) "cauchy" 0.5 (Robust.weight (Robust.Cauchy 1.0) 1.0);
  Alcotest.(check (float 1e-12)) "tukey beyond" 0.0 (Robust.weight (Robust.Tukey 1.0) 2.0);
  Alcotest.(check bool) "weights in [0,1]" true
    (List.for_all
       (fun e ->
         List.for_all
           (fun l ->
             let w = Robust.weight l e in
             w >= 0.0 && w <= 1.0)
           [ Robust.Huber 1.5; Robust.Cauchy 1.5; Robust.Tukey 3.0 ])
       [ 0.0; 0.5; 1.0; 2.0; 10.0 ])

let test_robustify_scales_consistently () =
  (* Wrapped factor's error and Jacobian are the plain ones scaled by
     the same sqrt-weight. *)
  let f = vector_prior ~name:"p" ~var:"x" ~z:[| 0.0 |] ~sigma:1.0 in
  let rf = Robust.robustify (Robust.Huber 1.0) f in
  let lookup _ = Var.Vector [| 4.0 |] in
  let e0, b0 = Factor.linearize f lookup in
  let e1, b1 = Factor.linearize rf lookup in
  let s = sqrt (Robust.weight (Robust.Huber 1.0) 4.0) in
  check_vec "scaled error" (Vec.scale s e0) e1;
  let _, j0 = List.hd b0 and _, j1 = List.hd b1 in
  Alcotest.(check (float 1e-12)) "scaled jacobian" (s *. Mat.get j0 0 0) (Mat.get j1 0 0)

let test_robust_rejects_outlier () =
  (* A chain with one wildly wrong loop closure: with plain least
     squares the outlier drags the solution; with a robust loss the
     estimate stays near the truth. *)
  let build loss =
    let g = Graph.create () in
    for i = 0 to 4 do
      Graph.add_variable g (Printf.sprintf "x%d" i) (Var.Vector [| float_of_int i |])
    done;
    Graph.add_factor g (vector_prior ~name:"p0" ~var:"x0" ~z:[| 0.0 |] ~sigma:0.1);
    for i = 0 to 3 do
      Graph.add_factor g
        (Robust.robustify loss
           (vector_between
              ~name:(Printf.sprintf "b%d" i)
              ~a:(Printf.sprintf "x%d" i)
              ~b:(Printf.sprintf "x%d" (i + 1))
              ~z:[| 1.0 |] ~sigma:0.1))
    done;
    (* The outlier: claims x4 - x0 = 40 instead of 4. *)
    Graph.add_factor g
      (Robust.robustify loss (vector_between ~name:"outlier" ~a:"x0" ~b:"x4" ~z:[| 40.0 |] ~sigma:0.1));
    let params = { Optimizer.default_params with max_iterations = 60 } in
    ignore (Optimizer.optimize ~params g);
    match Graph.value g "x4" with Var.Vector v -> v.(0) | _ -> nan
  in
  let plain = build Robust.Trivial in
  let robust = build (Robust.Cauchy 1.0) in
  Alcotest.(check bool) (Printf.sprintf "plain dragged (%.2f)" plain) true (plain > 8.0);
  Alcotest.(check bool) (Printf.sprintf "robust stays (%.2f)" robust) true
    (Float.abs (robust -. 4.0) < 0.5)

let test_robust_bad_threshold () =
  Alcotest.check_raises "bad k" (Invalid_argument "Robust.huber: threshold must be positive")
    (fun () -> ignore (Robust.weight (Robust.Huber 0.0) 1.0))

(* ---------- Marginals ---------- *)

let test_marginals_match_dense_inverse () =
  let g = random_chain_graph 17 5 in
  let order = Graph.variables g in
  let lin = Graph.linearize g in
  let result = Elimination.eliminate ~order ~dims:(Graph.dims g) lin in
  let m = Marginals.of_result ~order ~dims:(Graph.dims g) result in
  (* Reference: (AᵀA)⁻¹ via Cholesky solves on the dense system. *)
  let asm = Linear_system.assemble ~var_order:order ~dims:(Graph.dims g) lin in
  let a, _ = Assembly.to_dense asm in
  let info = Mat.mul (Mat.transpose a) a in
  let n, _ = Mat.dims info in
  let dense_cov =
    Mat.init n n (fun i j ->
        let e = Vec.create n in
        e.(j) <- 1.0;
        (Chol.solve info e).(i))
  in
  if not (Mat.equal ~eps:1e-6 dense_cov (Marginals.full m)) then
    Alcotest.fail "full covariance mismatch";
  (* Per-variable marginal blocks line up. *)
  let off = ref 0 in
  List.iter
    (fun v ->
      let d = Graph.dims g v in
      let expected = Mat.block dense_cov !off !off d d in
      if not (Mat.equal ~eps:1e-6 expected (Marginals.marginal m v)) then
        Alcotest.failf "marginal mismatch at %s" v;
      off := !off + d)
    order

let test_marginals_prior_tightens () =
  (* More information -> smaller covariance. *)
  let build sigma =
    let g = Graph.create () in
    Graph.add_variable g "x" (Var.Vector [| 0.0 |]);
    Graph.add_factor g (vector_prior ~name:"p" ~var:"x" ~z:[| 0.0 |] ~sigma);
    let order = Graph.variables g in
    let result = Elimination.eliminate ~order ~dims:(Graph.dims g) (Graph.linearize g) in
    Mat.get (Marginals.marginal (Marginals.of_result ~order ~dims:(Graph.dims g) result) "x") 0 0
  in
  Alcotest.(check bool) "tighter prior, smaller variance" true (build 0.1 < build 1.0);
  Alcotest.(check (float 1e-9)) "variance = sigma^2" 0.01 (build 0.1)

let test_marginals_unknown_var () =
  let g = random_chain_graph 23 3 in
  let order = Graph.variables g in
  let result = Elimination.eliminate ~order ~dims:(Graph.dims g) (Graph.linearize g) in
  let m = Marginals.of_result ~order ~dims:(Graph.dims g) result in
  Alcotest.check_raises "unknown" Not_found (fun () -> ignore (Marginals.marginal m "nope"))

(* ---------- Nonlinear incremental smoother ---------- *)

let relin_off = { Smoother.relin_threshold = 0.0; max_relin_passes = 0; window = None }

let zero2 = Var.Vector (Vec.create 2)

let test_smoother_linear_exact () =
  (* Relinearization and marginalization off: after every update the
     smoother's deltas must equal a batch elimination of the same
     factors (fed in insertion order) — bit-identical stacking. *)
  let rng = Rng.of_int 31 in
  let sm = Smoother.create ~params:relin_off () in
  let fs = ref [] in
  let names = ref [ "x0" ] in
  let step f =
    Smoother.add_factor sm f;
    fs := !fs @ [ f ]
  in
  Smoother.add_variable sm "x0" zero2;
  step (vector_prior ~name:"p" ~var:"x0" ~z:[| 0.2; -0.4 |] ~sigma:0.5);
  Smoother.update sm;
  for i = 1 to 9 do
    let v = Printf.sprintf "x%d" i in
    Smoother.add_variable sm v zero2;
    names := !names @ [ v ];
    let z = Array.init 2 (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
    step (vector_between ~name:(Printf.sprintf "o%d" i) ~a:(Printf.sprintf "x%d" (i - 1)) ~b:v ~z ~sigma:0.3);
    if i = 7 then step (vector_between ~name:"l7" ~a:"x3" ~b:"x7" ~z:[| 0.1; 0.1 |] ~sigma:0.4);
    if i = 9 then step (vector_between ~name:"l9" ~a:"x0" ~b:"x9" ~z:[| 0.5; 0.5 |] ~sigma:0.4);
    Smoother.update sm;
    let linearized = List.map (fun f -> Linear_system.of_factor f (fun _ -> zero2)) !fs in
    let batch = Elimination.solve ~order:!names ~dims:(fun _ -> 2) linearized in
    List.iter
      (fun v ->
        check_vec
          (Printf.sprintf "step %d %s" i v)
          ~eps:0.0 (List.assoc v batch) (Smoother.delta sm v))
      !names
  done

(* A 1D/2D odometry chain x0..x[n] grown one pose per update. *)
let smoother_chain ~dim n =
  let sm = Smoother.create ~params:relin_off () in
  let zero = Var.Vector (Vec.create dim) in
  let step = Array.init dim (fun k -> if k = 0 then 1.0 else 0.0) in
  Smoother.add_variable sm "x0" zero;
  Smoother.add_factor sm (vector_prior ~name:"p" ~var:"x0" ~z:(Vec.create dim) ~sigma:0.5);
  Smoother.update sm;
  for i = 1 to n do
    let v = Printf.sprintf "x%d" i in
    Smoother.add_variable sm v zero;
    Smoother.add_factor sm
      (vector_between ~name:("o" ^ v) ~a:(Printf.sprintf "x%d" (i - 1)) ~b:v ~z:step ~sigma:0.3);
    Smoother.update sm
  done;
  sm

let test_incremental_locality () =
  (* Odometry extension touches O(1) variables, not the whole chain. *)
  let s = Smoother.stats (smoother_chain ~dim:2 20) in
  Alcotest.(check int) "21 variables" 21 s.Smoother.total_variables;
  Alcotest.(check bool)
    (Printf.sprintf "local update touched %d vars" s.Smoother.affected_last)
    true
    (s.Smoother.affected_last <= 3)

let test_incremental_loop_closure_reaches_root () =
  let sm = smoother_chain ~dim:1 10 in
  (* Loop closure from x0: affects the whole ancestor path. *)
  Smoother.add_factor sm (vector_between ~name:"loop" ~a:"x0" ~b:"x10" ~z:[| 10.1 |] ~sigma:0.3);
  Smoother.update sm;
  let s = Smoother.stats sm in
  Alcotest.(check bool)
    (Printf.sprintf "loop touched %d vars" s.Smoother.affected_last)
    true
    (s.Smoother.affected_last = 11);
  Alcotest.(check int) "all solved" 11 (List.length (Smoother.estimates sm))

let test_smoother_marginalization_linear_exact () =
  (* Sliding window on a linear chain with short loop closures: the
     surviving variables' solution must match the full batch solve —
     marginalization is exact in the linear case. *)
  let rng = Rng.of_int 97 in
  let window = 8 in
  let params = { Smoother.relin_threshold = 0.0; max_relin_passes = 0; window = Some window } in
  let sm = Smoother.create ~params () in
  let fs = ref [] in
  let names = ref [ "x0" ] in
  let step f =
    Smoother.add_factor sm f;
    fs := !fs @ [ f ]
  in
  Smoother.add_variable sm "x0" zero2;
  step (vector_prior ~name:"p" ~var:"x0" ~z:[| 0.1; 0.3 |] ~sigma:0.5);
  Smoother.update sm;
  let n = 30 in
  for i = 1 to n - 1 do
    let v = Printf.sprintf "x%d" i in
    Smoother.add_variable sm v zero2;
    names := !names @ [ v ];
    let z = Array.init 2 (fun _ -> Rng.uniform rng ~lo:(-1.0) ~hi:1.0) in
    step (vector_between ~name:(Printf.sprintf "o%d" i) ~a:(Printf.sprintf "x%d" (i - 1)) ~b:v ~z ~sigma:0.3);
    if i mod 5 = 0 && i >= 4 then
      step (vector_between ~name:(Printf.sprintf "l%d" i) ~a:(Printf.sprintf "x%d" (i - 4)) ~b:v ~z:[| 0.05; -0.05 |] ~sigma:0.4);
    Smoother.update sm;
    Alcotest.(check bool)
      "window bound" true
      (List.length (Smoother.live_variables sm) <= window)
  done;
  let linearized = List.map (fun f -> Linear_system.of_factor f (fun _ -> zero2)) !fs in
  let batch = Elimination.solve ~order:!names ~dims:(fun _ -> 2) linearized in
  List.iter
    (fun v -> check_vec ("survivor " ^ v) ~eps:1e-9 (List.assoc v batch) (Smoother.delta sm v))
    (Smoother.live_variables sm);
  let s = Smoother.stats sm in
  Alcotest.(check int) "marginalized count" (n - window) s.Smoother.marginalized;
  (* Retired variables keep their last estimate and reject new factors. *)
  Alcotest.(check bool) "x0 retired" true (Smoother.is_retired sm "x0");
  ignore (Smoother.estimate sm "x0");
  Alcotest.(check bool) "retired factor rejected" true
    (try
       Smoother.add_factor sm
         (vector_between ~name:"late" ~a:"x0" ~b:(Printf.sprintf "x%d" (n - 1)) ~z:[| 0.0; 0.0 |] ~sigma:1.0);
       false
     with Smoother.Retired v -> v = "x0");
  Alcotest.(check int)
    "all_estimates covers everything" n
    (List.length (Smoother.all_estimates sm))

let test_smoother_relin_matches_gauss_newton () =
  (* Pose2 square loop with noisy odometry and a loop closure: with a
     tight relinearization threshold the incremental estimate must
     land on the batch Gauss-Newton fixed point. *)
  let rng = Rng.of_int 1234 in
  let n = 12 in
  let truth =
    Array.init n (fun i ->
        let side = i / 3 in
        let along = float_of_int (i mod 3) in
        let theta = float_of_int side *. (Float.pi /. 2.0) in
        let x, y =
          match side with
          | 0 -> (along, 0.0)
          | 1 -> (3.0, along)
          | 2 -> (3.0 -. along, 3.0)
          | _ -> (0.0, 3.0 -. along)
        in
        Pose2.create ~theta ~t:[| x; y |])
  in
  let noisy_between a b =
    let z = Pose2.ominus truth.(b) truth.(a) in
    Pose2.retract z
      (Array.init 3 (fun _ -> Rng.uniform rng ~lo:(-0.02) ~hi:0.02))
  in
  let params = { Smoother.relin_threshold = 1e-5; max_relin_passes = 10; window = None } in
  let sm = Smoother.create ~params () in
  let g = Graph.create () in
  let vname i = Printf.sprintf "x%d" i in
  let add_both i value =
    Smoother.add_variable sm (vname i) value;
    Graph.add_variable g (vname i) value
  in
  let factor_both f =
    Smoother.add_factor sm f;
    Graph.add_factor g f
  in
  add_both 0 (Var.Pose2 truth.(0));
  factor_both (Orianna_factors.Pose_factors.prior2 ~name:"p0" ~var:(vname 0) ~z:truth.(0) ~sigma:0.01);
  Smoother.update sm;
  for i = 1 to n - 1 do
    let z = noisy_between (i - 1) i in
    (* Dead-reckoned initial estimate. *)
    let init =
      match Smoother.estimate sm (vname (i - 1)) with
      | Var.Pose2 prev -> Var.Pose2 (Pose2.oplus prev z)
      | _ -> assert false
    in
    add_both i init;
    factor_both
      (Orianna_factors.Pose_factors.between2
         ~name:(Printf.sprintf "o%d" i)
         ~a:(vname (i - 1)) ~b:(vname i) ~z ~sigma:0.05);
    if i = n - 1 then
      factor_both
        (Orianna_factors.Pose_factors.between2 ~name:"loop" ~a:(vname 0) ~b:(vname i)
           ~z:(noisy_between 0 i) ~sigma:0.05);
    Smoother.update sm
  done;
  let report = Optimizer.optimize g in
  Alcotest.(check bool) "batch converged" true report.Optimizer.converged;
  List.iter
    (fun v ->
      let d = Var.local (Graph.value g v) (Smoother.estimate sm v) in
      Alcotest.(check bool)
        (Printf.sprintf "%s within 1e-6 of GN (|d| = %g)" v (Vec.norm d))
        true
        (Vec.norm d < 1e-6))
    (Smoother.live_variables sm);
  let s = Smoother.stats sm in
  Alcotest.(check bool) "some relinearization happened" true (s.Smoother.relinearized_last >= 0)

let test_smoother_obs_counters () =
  let module Obs = Orianna_obs.Obs in
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable (fun () ->
      let sm = Smoother.create ~params:relin_off () in
      Smoother.add_variable sm "a" zero2;
      Smoother.add_factor sm (vector_prior ~name:"p" ~var:"a" ~z:[| 1.0; 0.0 |] ~sigma:0.5);
      Smoother.update sm;
      Smoother.add_variable sm "b" zero2;
      Smoother.add_factor sm (vector_between ~name:"ab" ~a:"a" ~b:"b" ~z:[| 1.0; 1.0 |] ~sigma:0.3);
      Smoother.update sm;
      Alcotest.(check int) "updates counter" 2 (Obs.counter "fg.incremental.updates");
      Alcotest.(check bool) "affected counter" true (Obs.counter "fg.incremental.affected" >= 3);
      Alcotest.(check bool) "affected fraction histogram" true
        (List.mem_assoc "fg.incremental.affected_fraction" (Obs.histograms ())))

let test_smoother_duplicate_and_unknown () =
  let sm = Smoother.create () in
  Smoother.add_variable sm "x" zero2;
  Alcotest.(check bool) "duplicate rejected" true
    (try
       Smoother.add_variable sm "x" zero2;
       false
     with Invalid_argument _ -> true);
  Alcotest.(check bool) "unknown rejected" true
    (try
       Smoother.add_factor sm (vector_prior ~name:"p" ~var:"ghost" ~z:[| 0.0; 0.0 |] ~sigma:1.0);
       false
     with Invalid_argument _ -> true)

(* ---------- Factor validation ---------- *)

let test_factor_sigma_mismatch () =
  Alcotest.check_raises "sigma mismatch"
    (Invalid_argument "Factor.native bad: 2 sigmas for error dim 3") (fun () ->
      ignore
        (Factor.native ~name:"bad" ~vars:[ "x" ] ~sigmas:[| 1.0; 1.0 |] ~error_dim:3
           (fun _ -> ([| 0.0; 0.0; 0.0 |], []))))

let test_factor_undeclared_variable () =
  Alcotest.check_raises "undeclared"
    (Invalid_argument "Factor.symbolic f: expression mentions undeclared y") (fun () ->
      ignore
        (Factor.symbolic ~name:"f" ~vars:[ "x" ] ~sigmas:[| 1.0 |]
           [ Expr.(vec_var "x" - vec_var "y") ]))

let test_factor_whitening () =
  let f = vector_prior ~name:"p" ~var:"x" ~z:[| 0.0 |] ~sigma:0.5 in
  let lookup _ = Var.Vector [| 2.0 |] in
  let err, blocks = Factor.linearize f lookup in
  check_vec "whitened error" [| 4.0 |] err;
  let _, j = List.hd blocks in
  Alcotest.(check (float 1e-12)) "whitened jacobian" 2.0 (Mat.get j 0 0)

let () =
  Alcotest.run "fg"
    [
      ( "var",
        [
          Alcotest.test_case "dims" `Quick test_var_dims;
          Alcotest.test_case "retract/local" `Quick test_var_retract_local;
          Alcotest.test_case "kind mismatch" `Quick test_var_kind_mismatch;
        ] );
      ( "graph",
        [
          Alcotest.test_case "duplicate variable" `Quick test_graph_duplicate_variable;
          Alcotest.test_case "unknown factor var" `Quick test_graph_unknown_factor_var;
          Alcotest.test_case "error" `Quick test_graph_error;
        ] );
      ( "ordering",
        [
          Alcotest.test_case "permutations" `Quick test_ordering_permutations;
          Alcotest.test_case "min degree leaves first" `Quick test_min_degree_prefers_leaves;
        ] );
      ( "elimination",
        [
          Alcotest.test_case "matches dense" `Quick test_elimination_matches_dense;
          Alcotest.test_case "census" `Quick test_elimination_census;
          Alcotest.test_case "R triangular + RtR=AtA" `Quick test_elimination_r_is_triangular;
          Alcotest.test_case "underconstrained" `Quick test_elimination_underconstrained;
          Alcotest.test_case "cholesky matches qr" `Quick test_cholesky_matches_qr;
          Alcotest.test_case "cholesky cheaper" `Quick test_cholesky_cheaper;
          Alcotest.test_case "cholesky pose graph" `Quick test_cholesky_pose_graph;
        ] );
      ( "optimizer",
        [
          Alcotest.test_case "linear one step" `Quick test_optimizer_linear_problem_one_step;
          Alcotest.test_case "pose3 chain" `Quick test_optimizer_pose3_chain;
          Alcotest.test_case "LM bad init" `Quick test_optimizer_lm_on_bad_init;
          Alcotest.test_case "macs counted" `Quick test_optimizer_macs_counted;
        ] );
      ( "factor",
        [
          Alcotest.test_case "sigma mismatch" `Quick test_factor_sigma_mismatch;
          Alcotest.test_case "undeclared variable" `Quick test_factor_undeclared_variable;
          Alcotest.test_case "whitening" `Quick test_factor_whitening;
        ] );
      ( "robust",
        [
          Alcotest.test_case "weights" `Quick test_robust_weights;
          Alcotest.test_case "scales consistently" `Quick test_robustify_scales_consistently;
          Alcotest.test_case "rejects outlier" `Quick test_robust_rejects_outlier;
          Alcotest.test_case "bad threshold" `Quick test_robust_bad_threshold;
        ] );
      ( "marginals",
        [
          Alcotest.test_case "matches dense inverse" `Quick test_marginals_match_dense_inverse;
          Alcotest.test_case "prior tightens" `Quick test_marginals_prior_tightens;
          Alcotest.test_case "unknown var" `Quick test_marginals_unknown_var;
        ] );
      ( "incremental",
        [
          Alcotest.test_case "locality" `Quick test_incremental_locality;
          Alcotest.test_case "loop closure" `Quick test_incremental_loop_closure_reaches_root;
        ] );
      ( "smoother",
        [
          Alcotest.test_case "linear exact" `Quick test_smoother_linear_exact;
          Alcotest.test_case "marginalization linear exact" `Quick
            test_smoother_marginalization_linear_exact;
          Alcotest.test_case "relin matches Gauss-Newton" `Quick
            test_smoother_relin_matches_gauss_newton;
          Alcotest.test_case "obs counters" `Quick test_smoother_obs_counters;
          Alcotest.test_case "duplicate and unknown" `Quick test_smoother_duplicate_and_unknown;
        ] );
    ]
