(* Incremental smoothing: online localization as a measurement stream.

   Localization accelerators (the paper's [21] substrate) exploit
   incremental factor-graph inference: each new keyframe only
   re-eliminates the variables its measurements touch plus their
   ancestors, instead of re-solving the whole window.  This example
   streams a 120-pose 2D trajectory with periodic loop closures and
   compares the work the incremental smoother does against batch
   re-elimination — while checking both produce identical solutions.

   Run with: dune exec examples/incremental_slam.exe *)

open Orianna_linalg
open Orianna_fg
open Orianna_util

let dim = 2
let poses = 120
let loop_every = 30

(* Linear factors on 2D positions: a prior and relative measurements.
   With relinearization and marginalization off, the smoother runs the
   exact linear (iSAM) core: its estimates are bit-identical to a batch
   elimination of the same factors. *)
let prior ~var ~z ~sigma =
  Factor.native ~name:("prior " ^ var) ~vars:[ var ] ~sigmas:(Array.make dim sigma) ~error_dim:dim
    (fun lookup ->
      match lookup var with
      | Var.Vector x -> (Vec.sub x z, [ (var, Mat.identity dim) ])
      | _ -> invalid_arg "prior: expects a vector variable")

let between ~a ~b ~z ~sigma =
  Factor.native ~name:(a ^ "->" ^ b) ~vars:[ a; b ] ~sigmas:(Array.make dim sigma) ~error_dim:dim
    (fun lookup ->
      match (lookup a, lookup b) with
      | Var.Vector xa, Var.Vector xb ->
          (Vec.sub (Vec.sub xb xa) z, [ (a, Mat.neg (Mat.identity dim)); (b, Mat.identity dim) ])
      | _ -> invalid_arg "between: expects vector variables")

let name i = Printf.sprintf "x%d" i
let zero = Var.Vector (Vec.create dim)

let () =
  let rng = Rng.of_int 31415 in
  let linear = { Smoother.relin_threshold = 0.0; max_relin_passes = 0; window = None } in
  let sm = Smoother.create ~params:linear () in
  let all_factors = ref [] in
  let affected_counts = ref [] in
  let push f =
    all_factors := f :: !all_factors;
    Smoother.add_factor sm f;
    Smoother.update sm;
    affected_counts := (Smoother.stats sm).Smoother.affected_last :: !affected_counts
  in
  Smoother.add_variable sm (name 0) zero;
  push (prior ~var:(name 0) ~z:[| 0.0; 0.0 |] ~sigma:0.1);
  for i = 1 to poses - 1 do
    Smoother.add_variable sm (name i) zero;
    let z = [| 1.0 +. Rng.gaussian_sigma rng ~sigma:0.05; Rng.gaussian_sigma rng ~sigma:0.05 |] in
    push (between ~a:(name (i - 1)) ~b:(name i) ~z ~sigma:0.1);
    if i mod loop_every = 0 then
      (* Loop closure back to a much older pose. *)
      push
        (between
           ~a:(name (i - loop_every))
           ~b:(name i)
           ~z:[| float_of_int loop_every; 0.0 |]
           ~sigma:0.2)
  done;

  (* Exactness: incremental == batch over all factors, linearized at
     the zero initial estimates. *)
  let batch =
    Elimination.solve
      ~order:(Smoother.live_variables sm)
      ~dims:(fun _ -> dim)
      (List.rev_map (fun f -> Linear_system.of_factor f (fun _ -> zero)) !all_factors)
  in
  let max_diff =
    List.fold_left
      (fun acc (v, est) ->
        match est with
        | Var.Vector x -> Float.max acc (Vec.dist x (List.assoc v batch))
        | _ -> acc)
      0.0 (Smoother.estimates sm)
  in
  Format.printf "streamed %d poses, %d updates@." poses (Smoother.stats sm).Smoother.updates;
  Format.printf "incremental vs batch solution: max difference %.2e@." max_diff;
  assert (max_diff < 1e-8);

  (* Work comparison. *)
  let counts = Array.of_list (List.rev !affected_counts) in
  let odometry = Array.to_list counts |> List.filter (fun c -> c <= 3) in
  let closures = Array.to_list counts |> List.filter (fun c -> c > 3) in
  Format.printf "@.re-eliminated variables per update:@.";
  Format.printf "  odometry updates : %d updates, avg %.1f variables@." (List.length odometry)
    (Stats.mean (Array.of_list (List.map float_of_int odometry)));
  Format.printf "  loop closures    : %d updates, avg %.1f variables@." (List.length closures)
    (Stats.mean (Array.of_list (List.map float_of_int closures)));
  Format.printf "  batch would re-eliminate all %d variables on every update@." poses;
  let incremental_work = Array.fold_left ( + ) 0 counts in
  let batch_work =
    (* Batch re-eliminates everything seen so far at each update. *)
    let n = Array.length counts in
    let acc = ref 0 in
    for i = 1 to n do
      acc := !acc + min poses i
    done;
    !acc
  in
  Format.printf "@.total eliminations: incremental %d vs batch-every-update %d (%.1fx less work)@."
    incremental_work batch_work
    (float_of_int batch_work /. float_of_int incremental_work)
