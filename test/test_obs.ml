module Obs = Orianna_obs.Obs
module Json = Orianna_obs.Json
module Chrome_trace = Orianna_obs.Chrome_trace
module Report = Orianna_obs.Report

(* A hand-cranked clock makes every timing deterministic. *)
let install_clock ?(at = 100.0) () =
  let t = ref at in
  Obs.set_clock (fun () -> !t);
  fun dt -> t := !t +. dt

let with_fresh_registry f =
  let advance = install_clock () in
  Obs.enable ();
  Obs.reset ();
  Fun.protect ~finally:Obs.disable (fun () -> f advance)

(* ---------------- spans ---------------- *)

let test_span_nesting () =
  with_fresh_registry @@ fun advance ->
  Obs.with_span "outer" (fun () ->
      advance 1.0;
      Obs.with_span "inner-a" (fun () -> advance 0.25);
      Obs.with_span ~attrs:[ ("k", "v") ] "inner-b" (fun () -> advance 0.5));
  Obs.with_span "second-root" (fun () -> advance 2.0);
  match Obs.spans () with
  | [ outer; second ] ->
      Alcotest.(check string) "root name" "outer" outer.Obs.name;
      Alcotest.(check (float 1e-9)) "outer start at epoch" 0.0 outer.Obs.start_s;
      Alcotest.(check (float 1e-9)) "outer duration" 1.75 outer.Obs.dur_s;
      Alcotest.(check (list string)) "children in start order" [ "inner-a"; "inner-b" ]
        (List.map (fun (s : Obs.span) -> s.Obs.name) outer.Obs.children);
      let b = List.nth outer.Obs.children 1 in
      Alcotest.(check (float 1e-9)) "inner-b duration" 0.5 b.Obs.dur_s;
      Alcotest.(check (list (pair string string))) "attrs kept" [ ("k", "v") ] b.Obs.attrs;
      Alcotest.(check (float 1e-9)) "self time excludes children" 1.0 (Obs.span_self_s outer);
      Alcotest.(check (float 1e-9)) "second root duration" 2.0 second.Obs.dur_s;
      Alcotest.(check int) "fold counts all spans" 4
        (Obs.fold_spans (fun n _ -> n + 1) 0 (Obs.spans ()))
  | spans -> Alcotest.failf "expected 2 roots, got %d" (List.length spans)

let test_span_records_on_exception () =
  with_fresh_registry @@ fun advance ->
  (try Obs.with_span "boom" (fun () -> advance 0.5; failwith "boom") with Failure _ -> ());
  match Obs.spans () with
  | [ s ] ->
      Alcotest.(check string) "span recorded" "boom" s.Obs.name;
      Alcotest.(check (float 1e-9)) "duration up to raise" 0.5 s.Obs.dur_s
  | spans -> Alcotest.failf "expected 1 root, got %d" (List.length spans)

let test_disabled_is_passthrough () =
  let _advance = install_clock () in
  Obs.disable ();
  Obs.reset ();
  let x = Obs.with_span "invisible" (fun () -> 41 + 1) in
  Obs.count "invisible.counter";
  Obs.observe "invisible.histogram" 1.0;
  Alcotest.(check int) "value returned" 42 x;
  Alcotest.(check int) "no spans" 0 (List.length (Obs.spans ()));
  Alcotest.(check int) "no counters" 0 (List.length (Obs.counters ()));
  Alcotest.(check int) "no histograms" 0 (List.length (Obs.histograms ()))

(* ---------------- counters ---------------- *)

let test_counter_determinism () =
  with_fresh_registry @@ fun _advance ->
  (* Insert in scrambled order; snapshots must come back name-sorted
     and identical across repeated runs. *)
  let feed () =
    Obs.count "z.last";
    Obs.count ~n:3 "a.first";
    Obs.count "m.middle";
    Obs.count ~n:2 "a.first"
  in
  feed ();
  let snap1 = Obs.counters () in
  Obs.reset ();
  feed ();
  let snap2 = Obs.counters () in
  Alcotest.(check (list (pair string int)))
    "sorted by name" [ ("a.first", 5); ("m.middle", 1); ("z.last", 1) ] snap1;
  Alcotest.(check (list (pair string int))) "reproducible" snap1 snap2;
  Alcotest.(check int) "point lookup" 5 (Obs.counter "a.first");
  Alcotest.(check int) "absent counter reads 0" 0 (Obs.counter "nope")

let test_histograms () =
  with_fresh_registry @@ fun _advance ->
  List.iter (Obs.observe "h") [ 2.0; 4.0; 9.0 ];
  match Obs.histograms () with
  | [ ("h", h) ] ->
      Alcotest.(check int) "samples" 3 h.Obs.samples;
      Alcotest.(check (float 1e-9)) "mean" 5.0 (Obs.mean h);
      Alcotest.(check (float 1e-9)) "min" 2.0 h.Obs.hmin;
      Alcotest.(check (float 1e-9)) "max" 9.0 h.Obs.hmax;
      Alcotest.(check (float 1e-9)) "last" 9.0 h.Obs.last
  | _ -> Alcotest.fail "expected exactly one histogram"

(* ---------------- json ---------------- *)

let rec json_equal a b =
  match (a, b) with
  | Json.Null, Json.Null -> true
  | Json.Bool x, Json.Bool y -> x = y
  | Json.Num x, Json.Num y -> Float.abs (x -. y) <= 1e-12 *. Float.max 1.0 (Float.abs x)
  | Json.Str x, Json.Str y -> x = y
  | Json.Arr xs, Json.Arr ys ->
      List.length xs = List.length ys && List.for_all2 json_equal xs ys
  | Json.Obj xs, Json.Obj ys ->
      List.length xs = List.length ys
      && List.for_all2 (fun (k, v) (k', v') -> k = k' && json_equal v v') xs ys
  | _ -> false

let test_json_roundtrip () =
  let j =
    Json.Obj
      [
        ("s", Json.Str "quote \" backslash \\ newline \n tab \t done");
        ("i", Json.int 42);
        ("neg", Json.Num (-0.125));
        ("big", Json.Num 1.5e17);
        ("b", Json.Bool true);
        ("n", Json.Null);
        ("arr", Json.Arr [ Json.int 1; Json.Str "two"; Json.Obj [] ]);
        ("empty", Json.Arr []);
      ]
  in
  let s = Json.to_string j in
  Alcotest.(check bool) "round trip" true (json_equal j (Json.parse s))

let test_json_rejects_garbage () =
  List.iter
    (fun s ->
      match Json.parse s with
      | exception Json.Parse_error _ -> ()
      | _ -> Alcotest.failf "accepted malformed input %S" s)
    [ "{"; "[1,"; "tru"; "\"open"; "{\"a\" 1}"; "[] trailing"; "\"\\uzzzz\"" ]

(* ---------------- exporters ---------------- *)

let test_chrome_trace_valid_json () =
  with_fresh_registry @@ fun advance ->
  Obs.with_span "phase \"one\"" (fun () ->
      advance 0.001;
      Obs.with_span "nested" (fun () -> advance 0.002));
  let events =
    Chrome_trace.of_spans (Obs.spans ())
    @ [
        Chrome_trace.Thread_name { pid = 1; tid = 0; name = "qr#0" };
        Chrome_trace.Duration
          {
            name = "QR";
            cat = "decompose";
            pid = 1;
            tid = 0;
            ts_us = 10.0;
            dur_us = 25.0;
            args = [ ("id", Json.int 7) ];
          };
        Chrome_trace.Counter
          { name = "ready"; pid = 1; ts_us = 10.0; series = [ ("depth", 3.0) ] };
        Chrome_trace.Instant { name = "mark"; cat = "span"; pid = 0; tid = 0; ts_us = 1.0 };
      ]
  in
  let parsed = Json.parse (Chrome_trace.to_string events) in
  (match Json.member "traceEvents" parsed with
  | Some (Json.Arr evs) ->
      Alcotest.(check int) "all events serialized" (List.length events) (List.length evs);
      let durations =
        List.filter (fun e -> Json.member "ph" e = Some (Json.Str "X")) evs
      in
      Alcotest.(check int) "duration events" 3 (List.length durations);
      let names =
        List.filter_map (fun e -> Json.member "name" e) durations
      in
      Alcotest.(check bool) "escaped name survives" true
        (List.mem (Json.Str "phase \"one\"") names)
  | _ -> Alcotest.fail "missing traceEvents array");
  match Json.member "displayTimeUnit" parsed with
  | Some (Json.Str _) -> ()
  | _ -> Alcotest.fail "missing displayTimeUnit"

let test_report_roundtrip () =
  with_fresh_registry @@ fun advance ->
  Obs.with_span "root" (fun () ->
      advance 0.5;
      Obs.count ~n:7 "ops";
      Obs.set_gauge "err" 0.25;
      Obs.observe "lat" 3.0);
  let parsed = Json.parse (Report.to_string ~meta:[ ("app", "Test") ] ()) in
  (match Json.member "counters" parsed with
  | Some (Json.Obj [ ("ops", n) ]) -> Alcotest.(check bool) "counter value" true (n = Json.int 7)
  | _ -> Alcotest.fail "bad counters");
  (match Json.member "spans" parsed with
  | Some (Json.Arr [ root ]) ->
      Alcotest.(check bool) "span name" true (Json.member "name" root = Some (Json.Str "root"));
      (match Json.member "dur_s" root with
      | Some (Json.Num d) -> Alcotest.(check (float 1e-9)) "span duration" 0.5 d
      | _ -> Alcotest.fail "span missing dur_s")
  | _ -> Alcotest.fail "bad spans");
  match Json.member "meta" parsed with
  | Some (Json.Obj [ ("app", Json.Str "Test") ]) -> ()
  | _ -> Alcotest.fail "bad meta"

(* ---------------- quantiles ---------------- *)

(* The log-bucketed quantile must track the exact sorted percentile
   within one bucket width: relative error <= 2^(1/sub) - 1 (~4.4%
   at sub = 16); we assert a 5% ceiling. *)
let prop_quantile_error_bound =
  QCheck.Test.make ~name:"obs: log-bucket quantile within 5% of exact percentile" ~count:300
    QCheck.(pair (list_of_size Gen.(1 -- 200) (float_bound_exclusive 1e6)) (int_bound 100))
    (fun (raw, p) ->
      QCheck.assume (raw <> []);
      let samples = List.map (fun v -> Float.abs v +. 1e-3) raw in
      let h = Obs.Hist.create () in
      List.iter (Obs.Hist.add h) samples;
      let snap = Obs.snapshot_hist h in
      let exact =
        Orianna_util.Stats.percentile (Array.of_list samples) (float_of_int p)
      in
      let approx = Obs.quantile snap (float_of_int p) in
      Float.abs (approx -. exact) <= 0.05 *. Float.max exact 1e-9)

let test_quantile_extrema () =
  let h = Obs.Hist.create () in
  List.iter (Obs.Hist.add h) [ 5.0; 1.0; 9.0 ];
  let snap = Obs.snapshot_hist h in
  Alcotest.(check (float 1e-9)) "p0 is min" 1.0 (Obs.quantile snap 0.0);
  Alcotest.(check (float 1e-9)) "p100 is max" 9.0 (Obs.quantile snap 100.0)

(* ---------------- sharding ---------------- *)

(* The multicore contract: the same multiset of metric writes yields
   the same snapshot whether it all happened on one domain or was
   split across four.  Gauges and a histogram's [last] field are
   last-writer-wins (inherently timing-dependent across domains), so
   the property covers counters and histogram contents. *)
let prop_shard_merge_domain_invariant =
  QCheck.Test.make ~name:"obs: snapshot invariant under domain partitioning" ~count:50
    QCheck.(list_of_size Gen.(0 -- 120) (triple (int_bound 2) (int_bound 3) (float_bound_exclusive 1e4)))
    (fun ops ->
      let apply (kind, name_i, v) =
        match kind with
        | 0 -> Obs.count ~n:(1 + name_i) (Printf.sprintf "c.m%d" name_i)
        | 1 -> Obs.observe (Printf.sprintf "h.m%d" name_i) (Float.abs v +. 0.001)
        | _ -> Obs.observe (Printf.sprintf "h.n%d" name_i) ((Float.abs v *. 2.0) +. 0.5)
      in
      let hist_key (name, (h : Obs.histogram)) =
        (name, h.Obs.samples, h.Obs.hmin, h.Obs.hmax, h.Obs.nonpos, Array.to_list h.Obs.counts)
      in
      let hist_sums hs = List.map (fun (_, (h : Obs.histogram)) -> h.Obs.sum) hs in
      let snapshot () = (Obs.counters (), Obs.histograms ()) in
      Obs.enable ();
      Obs.reset ();
      List.iter apply ops;
      let seq_counters, seq_hists = snapshot () in
      Obs.reset ();
      let chunks = Array.make 4 [] in
      List.iteri (fun i op -> chunks.(i mod 4) <- op :: chunks.(i mod 4)) ops;
      let domains =
        Array.map (fun chunk -> Domain.spawn (fun () -> List.iter apply chunk)) chunks
      in
      Array.iter Domain.join domains;
      let par_counters, par_hists = snapshot () in
      Obs.disable ();
      Obs.reset ();
      seq_counters = par_counters
      && List.map hist_key seq_hists = List.map hist_key par_hists
      (* float sums may differ in rounding across addition orders *)
      && List.for_all2
           (fun a b -> Float.abs (a -. b) <= 1e-9 *. Float.max 1.0 (Float.abs a))
           (hist_sums seq_hists) (hist_sums par_hists))

(* ---------------- gc spans ---------------- *)

let test_span_gc_attrs () =
  (* Real clock and real Gc here: the attribute values are
     environment-dependent, only their presence and shape are not. *)
  Obs.set_clock (fun () -> Unix.gettimeofday ());
  Obs.enable ();
  Obs.reset ();
  Obs.with_span ~gc:true "alloc" (fun () -> ignore (Sys.opaque_identity (Array.make 10_000 0.0)));
  Obs.with_span "quiet" (fun () -> ());
  let spans = Obs.spans () in
  Obs.disable ();
  Obs.reset ();
  match spans with
  | [ alloc; quiet ] ->
      List.iter
        (fun key ->
          match List.assoc_opt key alloc.Obs.attrs with
          | Some v -> (
              match float_of_string_opt v with
              | Some f -> Alcotest.(check bool) (key ^ " non-negative") true (f >= 0.0)
              | None -> Alcotest.failf "attr %s not numeric: %s" key v)
          | None -> Alcotest.failf "missing gc attr %s" key)
        [ "gc.minor_words"; "gc.promoted_words"; "gc.minor_collections"; "gc.major_collections" ];
      Alcotest.(check bool) "no gc attrs without ~gc" true
        (List.for_all
           (fun (k, _) -> not (String.length k >= 3 && String.sub k 0 3 = "gc."))
           quiet.Obs.attrs)
  | spans -> Alcotest.failf "expected 2 spans, got %d" (List.length spans)

(* ---------------- chrome metadata round-trip ---------------- *)

let test_chrome_meta_events_roundtrip () =
  let events =
    [
      Chrome_trace.Thread_name { pid = 3; tid = 0; name = "slots" };
      Chrome_trace.Process_name { pid = 3; name = "pool domain 0 (caller)" };
      Chrome_trace.Instant { name = "submit run 1 (9 slots)"; cat = "pool"; pid = 3; tid = 0; ts_us = 12.5 };
      Chrome_trace.Counter
        { name = "pool.gc.minor_words"; pid = 3; ts_us = 99.0; series = [ ("minor_words", 4096.0) ] };
    ]
  in
  let parsed = Json.parse (Chrome_trace.to_string events) in
  let evs =
    match Json.member "traceEvents" parsed with
    | Some (Json.Arr evs) -> evs
    | _ -> Alcotest.fail "missing traceEvents"
  in
  let find ph =
    match List.find_opt (fun e -> Json.member "ph" e = Some (Json.Str ph)) evs with
    | Some e -> e
    | None -> Alcotest.failf "no %S event" ph
  in
  (* metadata: thread_name and process_name both use ph "M",
     distinguished by their "name" field *)
  let metas = List.filter (fun e -> Json.member "ph" e = Some (Json.Str "M")) evs in
  Alcotest.(check int) "two metadata events" 2 (List.length metas);
  let meta_arg kind =
    match
      List.find_opt (fun e -> Json.member "name" e = Some (Json.Str kind)) metas
    with
    | Some e -> (
        match Json.member "args" e with
        | Some args -> Json.member "name" args
        | None -> None)
    | None -> None
  in
  Alcotest.(check bool) "thread name survives" true
    (meta_arg "thread_name" = Some (Json.Str "slots"));
  Alcotest.(check bool) "process name survives" true
    (meta_arg "process_name" = Some (Json.Str "pool domain 0 (caller)"));
  let instant = find "i" in
  Alcotest.(check bool) "instant name" true
    (Json.member "name" instant = Some (Json.Str "submit run 1 (9 slots)"));
  Alcotest.(check bool) "instant ts" true (Json.member "ts" instant = Some (Json.Num 12.5));
  let counter = find "C" in
  (match Json.member "args" counter with
  | Some args ->
      Alcotest.(check bool) "counter series value" true
        (Json.member "minor_words" args = Some (Json.Num 4096.0))
  | None -> Alcotest.fail "counter missing args");
  Alcotest.(check bool) "counter pid" true (Json.member "pid" counter = Some (Json.Num 3.0))

(* ---------------- gate ---------------- *)

module Gate = Orianna_obs.Gate

let contains s sub =
  let n = String.length sub in
  let rec go i = i + n <= String.length s && (String.sub s i n = sub || go (i + 1)) in
  go 0

let verdict ?(tolerance = 0.0) ?(path = "x") op bound report =
  match Gate.check ~file:"r.json" ~key:"k" [ { Gate.path; op; bound; tolerance } ] report with
  | Ok [ v ] -> v
  | Ok vs -> Alcotest.failf "%d verdicts for one check" (List.length vs)
  | Error e -> Alcotest.fail (Gate.error_message e)

let gate_passes ?tolerance ?path op bound report =
  Gate.passed (verdict ?tolerance ?path op bound report)

let test_gate_boundary () =
  (* A value sitting exactly on its bound passes every op; one step
     past it fails. *)
  let r = {|{"x": 0.025}|} in
  List.iter
    (fun op -> Alcotest.(check bool) "on the bound" true (gate_passes op 0.025 r))
    [ Gate.Le; Gate.Ge; Gate.Eq ];
  Alcotest.(check bool) "le just below" false (gate_passes Gate.Le (Float.pred 0.025) r);
  Alcotest.(check bool) "ge just above" false (gate_passes Gate.Ge (Float.succ 0.025) r);
  Alcotest.(check bool) "eq off by one ulp" false (gate_passes Gate.Eq (Float.succ 0.025) r);
  let v = verdict Gate.Le 0.5 {|{"x": 0.75}|} in
  Alcotest.(check (float 0.0)) "signed margin" (-0.25) v.Gate.margin;
  Alcotest.(check string) "verdict line" "k x = 0.75 le 0.5 +/- 0 margin -0.25 REGRESSION"
    (Gate.verdict_line ~key:"k" v)

let test_gate_tolerance () =
  let r = {|{"x": 1.0}|} in
  Alcotest.(check bool) "le within" true (gate_passes ~tolerance:0.25 Gate.Le 0.75 r);
  Alcotest.(check bool) "le beyond" false (gate_passes ~tolerance:0.125 Gate.Le 0.75 r);
  Alcotest.(check bool) "ge within" true (gate_passes ~tolerance:0.25 Gate.Ge 1.25 r);
  Alcotest.(check bool) "ge beyond" false (gate_passes ~tolerance:0.125 Gate.Ge 1.25 r);
  Alcotest.(check bool) "eq within" true (gate_passes ~tolerance:0.5 Gate.Eq 1.5 r);
  Alcotest.(check bool) "eq beyond" false (gate_passes ~tolerance:0.25 Gate.Eq 1.5 r)

let test_gate_every_element () =
  let r = {|{"a": {"s": [{"f": 0.1}, {"f": 0.5}, {"f": 0.2}]}}|} in
  let v = verdict ~path:"a.s[*].f" Gate.Le 0.3 r in
  Alcotest.(check bool) "one element over fails" false (Gate.passed v);
  Alcotest.(check string) "worst element named" "a.s[1].f" v.Gate.at;
  Alcotest.(check (float 0.0)) "worst value" 0.5 v.Gate.value;
  Alcotest.(check bool) "all under passes" true (gate_passes ~path:"a.s[*].f" Gate.Le 0.5 r)

let test_gate_errors () =
  let expect_error what ~path result =
    match result with
    | Ok _ -> Alcotest.failf "%s: accepted" what
    | Error (e : Gate.error) ->
        Alcotest.(check string) (what ^ ": path") path e.Gate.path;
        let msg = Gate.error_message e in
        Alcotest.(check bool) (what ^ ": names the path in " ^ msg) true
          (path = "" || contains msg path)
  in
  let check path report =
    Gate.check ~file:"r.json" ~key:"k"
      [ { Gate.path; op = Gate.Le; bound = 1.0; tolerance = 0.0 } ]
      report
  in
  expect_error "missing path" ~path:"serve.nope" (check "serve.nope" {|{"serve": {"x": 1}}|});
  expect_error "not a number" ~path:"serve.x" (check "serve.x" {|{"serve": {"x": "1"}}|});
  expect_error "[*] on an object" ~path:"serve[*].x" (check "serve[*].x" {|{"serve": {"x": 1}}|});
  expect_error "[*] over nothing" ~path:"a[*]" (check "a[*]" {|{"a": []}|});
  expect_error "malformed report" ~path:"" (check "x" {|{"x": 1|});
  let load text = Gate.load ~file:"b.json" ~key:"k" text in
  expect_error "missing key" ~path:"" (load {|{"j": []}|});
  expect_error "no checks" ~path:"" (load {|{"k": []}|});
  expect_error "bad op" ~path:"x" (load {|{"k": [{"path": "x", "op": "lt", "bound": 1}]}|});
  expect_error "unknown field" ~path:"x"
    (load {|{"k": [{"path": "x", "op": "le", "bound": 1, "tolerence": 0.1}]}|});
  expect_error "negative tolerance" ~path:"x"
    (load {|{"k": [{"path": "x", "op": "le", "bound": 1, "tolerance": -1}]}|});
  expect_error "empty segment" ~path:"a..b"
    (load {|{"k": [{"path": "a..b", "op": "le", "bound": 1}]}|});
  (match load {|{"k": [{"path": "x", "op": "le", "bound": 1|} with
  | Error e ->
      Alcotest.(check bool) "parse error carries the byte offset" true
        (contains e.Gate.reason "at offset 43")
  | Ok _ -> Alcotest.fail "accepted a truncated baseline");
  match load {|{"comment": "c", "k": [{"path": "x", "op": "ge", "bound": 2}]}|} with
  | Ok [ c ] -> Alcotest.(check (float 0.0)) "tolerance defaults to 0" 0.0 c.Gate.tolerance
  | _ -> Alcotest.fail "valid baseline rejected"

(* The committed CI baselines, found from the test directory (dune
   runtest) or the repository root (dune exec). *)
let ci_file name = Filename.concat (if Sys.file_exists "ci" then "ci" else "../ci") name
let read_file path = In_channel.with_open_bin path In_channel.input_all

let baseline_keys text =
  match Json.parse text with
  | Json.Obj fields -> List.filter (( <> ) "comment") (List.map fst fields)
  | _ -> []

let test_gate_schema () =
  (* Every path in the serve, chaos and session gate files must resolve
     to a number in the report serve and sessions emit today. *)
  let module Serve = Orianna_serve.Serve in
  let module Request = Orianna_serve.Request in
  let module Session = Orianna_serve.Session in
  let module Stream = Orianna_apps.Stream in
  let trace =
    Request.generate ~rng:(Orianna_util.Rng.of_int 42)
      ~shape:(Request.Poisson { rate_hz = 20000.0 })
      ~apps:[ "MobileRobot" ] ~deadline_s:(1e-3, 4e-3) ~n:20
  in
  let report ?sessions config =
    let r = Serve.run ~config ?sessions ~trace () in
    Json.to_string (Json.Obj [ ("serve", Serve.report_json r) ])
  in
  let chaos =
    report
      {
        Serve.default_config with
        Serve.chaos = Some (Orianna_serve.Chaos.of_intensity ~seed:42 0.1);
        max_retries = 2;
      }
  in
  let stream =
    let module Datasets = Orianna_apps.Datasets in
    Stream.manhattan ~cfg:{ Datasets.default_config with Datasets.steps = 11 } ()
  in
  let mission =
    let priority = Request.Normal in
    { Session.mid = 0; stream; start_s = 0.0; period_s = 1e-4; priority; deadline_slack_s = 50e-3 }
  in
  let sessions =
    report ~sessions:(Session.create ~opt_level:1 ~missions:[ mission ] ()) Serve.default_config
  in
  List.iter
    (fun (name, report) ->
      let text = read_file (ci_file name) in
      List.iter
        (fun key ->
          let checked cs = Gate.check ~file:"report" ~key cs report in
          match Result.bind (Gate.load ~file:name ~key text) checked with
          | Ok _ -> ()
          | Error e -> Alcotest.fail (Gate.error_message e))
        (baseline_keys text))
    [
      ("serve_baseline.json", chaos);
      ("chaos_baseline.json", chaos);
      ("session_baseline.json", sessions);
    ]

let prop_gate_hostile_baselines =
  (* Truncate or flip one byte of a committed baseline: loading it, and
     checking it as a report, returns Ok or a structured error. *)
  let names = [| "serve"; "chaos"; "session"; "isa_opt" |] in
  QCheck.Test.make ~name:"gate: truncated or byte-flipped baselines never raise" ~count:400
    QCheck.(quad (int_bound 3) (int_bound 100_000) bool (int_bound 255))
    (fun (which, at, truncate, byte) ->
      let name = names.(which) ^ "_baseline.json" in
      let text = read_file (ci_file name) in
      let at = at mod String.length text in
      let hostile =
        if truncate then String.sub text 0 at
        else String.mapi (fun i c -> if i = at then Char.chr byte else c) text
      in
      List.for_all
        (fun key ->
          let never_raises = function Ok _ | Error (_ : Gate.error) -> true in
          never_raises (Gate.load ~file:name ~key hostile)
          && never_raises
               (Gate.check ~file:name ~key
                  [ { Gate.path = key ^ "[*].bound"; op = Gate.Le; bound = 1e9; tolerance = 0.0 } ]
                  hostile))
        (baseline_keys text))

let () =
  Alcotest.run "obs"
    [
      ( "spans",
        [
          Alcotest.test_case "nesting and timing" `Quick test_span_nesting;
          Alcotest.test_case "recorded on exception" `Quick test_span_records_on_exception;
          Alcotest.test_case "disabled passthrough" `Quick test_disabled_is_passthrough;
        ] );
      ( "metrics",
        [
          Alcotest.test_case "counter determinism" `Quick test_counter_determinism;
          Alcotest.test_case "histograms" `Quick test_histograms;
          Alcotest.test_case "quantile extrema" `Quick test_quantile_extrema;
          QCheck_alcotest.to_alcotest prop_quantile_error_bound;
          QCheck_alcotest.to_alcotest prop_shard_merge_domain_invariant;
        ] );
      ( "gc",
        [ Alcotest.test_case "with_span ~gc attrs" `Quick test_span_gc_attrs ] );
      ( "json",
        [
          Alcotest.test_case "round trip" `Quick test_json_roundtrip;
          Alcotest.test_case "rejects garbage" `Quick test_json_rejects_garbage;
        ] );
      ( "exporters",
        [
          Alcotest.test_case "chrome trace valid json" `Quick test_chrome_trace_valid_json;
          Alcotest.test_case "chrome metadata round-trip" `Quick test_chrome_meta_events_roundtrip;
          Alcotest.test_case "run report" `Quick test_report_roundtrip;
        ] );
      ( "gate",
        [
          Alcotest.test_case "ops at the boundary" `Quick test_gate_boundary;
          Alcotest.test_case "tolerance" `Quick test_gate_tolerance;
          Alcotest.test_case "every element" `Quick test_gate_every_element;
          Alcotest.test_case "structured errors" `Quick test_gate_errors;
          Alcotest.test_case "ci baselines match the serve report" `Quick test_gate_schema;
          QCheck_alcotest.to_alcotest prop_gate_hostile_baselines;
        ] );
    ]
