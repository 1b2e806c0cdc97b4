(* The benchmark's command line, run from the repository root:

     main.exe --workload pipeline|serve|sessions --seed N --seconds S --trace 0|1

   Human-readable figures go to standard output first; the last line is
   one JSON object {correct, attempted, failed, metrics}.  With
   [--trace 0] the metrics are BENCHMARK.json's end-to-end ones,
   measured untraced; with [--trace 1] they are its per-layer ones.
   The exit code is 1 when any output fails its check. *)

module Json = Orianna_obs.Json

let run_workload name =
  match name with
  | "pipeline" -> Some (let module D = Runner.Make (Wl_pipeline) in D.run)
  | "serve" -> Some (let module D = Runner.Make (Wl_serve) in D.run)
  | "sessions" -> Some (let module D = Runner.Make (Wl_sessions) in D.run)
  | _ -> None

let usage () =
  prerr_endline
    "usage: main.exe --workload pipeline|serve|sessions --seed N --seconds S --trace 0|1";
  exit 2

(* (name, unit) of every metric in one section of BENCHMARK.json. *)
let catalog section =
  let fail msg =
    prerr_endline ("BENCHMARK.json: " ^ msg);
    exit 2
  in
  let text =
    try In_channel.with_open_bin "BENCHMARK.json" In_channel.input_all
    with Sys_error e -> fail e
  in
  let str key m = match Json.member key m with Some (Json.Str s) -> s | _ -> fail ("no " ^ key) in
  match Json.member section (try Json.parse text with Json.Parse_error e -> fail e) with
  | Some (Json.Arr ms) -> List.map (fun m -> (str "name" m, str "unit" m)) ms
  | _ -> fail ("no " ^ section)

let () =
  let args = Array.to_list Sys.argv |> List.tl in
  let rec parse acc = function
    | key :: value :: rest when String.length key > 2 && String.sub key 0 2 = "--" ->
        parse ((String.sub key 2 (String.length key - 2), value) :: acc) rest
    | [] -> acc
    | _ -> usage ()
  in
  let opts = parse [] args in
  let get key = match List.assoc_opt key opts with Some v -> v | None -> usage () in
  let int key = match int_of_string_opt (get key) with Some n -> n | None -> usage () in
  let seed = int "seed" and seconds = float_of_int (int "seconds") in
  let trace = match get "trace" with "0" -> false | "1" -> true | _ -> usage () in
  let run = match run_workload (get "workload") with Some r -> r | None -> usage () in
  let catalog = catalog (if trace then "per_layer" else "end_to_end") in
  let (o : Runner.outcome) = run ~seed ~seconds ~trace in
  (* The workload reports every metric it owns; one that is unknown,
     missing its measurement or not finite fails the run.  A layer the
     workload never calls reads 0. *)
  let bad = ref 0 in
  List.iter
    (fun (n, _) ->
      if not (List.mem_assoc n catalog) then begin
        Printf.eprintf "metric %s is not in BENCHMARK.json\n" n;
        incr bad
      end)
    o.metrics;
  let metrics =
    List.map
      (fun (n, unit) ->
        let v =
          match List.assoc_opt n o.metrics with
          | None -> 0.0
          | Some v when Float.is_finite v -> v
          | Some _ ->
              Printf.eprintf "metric %s has no finite measurement\n" n;
              incr bad;
              0.0
        in
        (n, Json.Obj [ ("value", Json.Num v); ("unit", Json.Str unit) ]))
      catalog
  in
  let failed = o.failed + !bad in
  print_endline
    (Json.to_string
       (Json.Obj
          [
            ("correct", Json.Bool (failed = 0));
            ("attempted", Json.int o.attempted);
            ("failed", Json.int failed);
            ("metrics", Json.Obj metrics);
          ]));
  exit (if failed = 0 then 0 else 1)
