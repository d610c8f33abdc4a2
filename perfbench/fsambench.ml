(* The repository benchmark. Runs one workload from a seed, checks that
   every output is correct, prints every metric by name with its unit, and
   ends with one JSON line: {"correct", "attempted", "failed", "metrics"}.

     fsambench --workload paper_suite|synth_cold|serve_edit --seed N
               --seconds S --trace 0|1
     fsambench --selftest --spec BENCHMARK.json
     fsambench --pins

   [--trace 0] measures the end-to-end metrics with the program untraced;
   [--trace 1] makes the separate traced run that gives the per-layer
   metrics. See README.md for what each workload and metric is for. *)

module L = Ledger
module J = Fsam_obs.Json

let end_to_end =
  [
    ("verdict_s", "s");
    ("setup_s", "s");
    ("peak_rss_mb", "MB");
    ("edit_s", "s");
    ("reverdict_s", "s");
    ("query_p50_us", "us");
    ("query_p99_us", "us");
    ("busy_query_p99_us", "us");
  ]

let layer name = [ (name ^ "_s", "s"); (name ^ "_alloc_mw", "Mwords") ]
let counts names = List.map (fun n -> (n, "count")) names

let per_layer =
  List.concat
    [
      layer "frontend.parse";
      layer "frontend.lower";
      layer "ir.validate";
      counts [ "ir.stmts" ];
      layer "andersen.run";
      counts [ "andersen.iterations"; "andersen.pts_size" ];
      layer "modref.compute";
      layer "icfg.build";
      layer "threads.build";
      layer "threads.inst_graph";
      counts [ "threads.insts" ];
      layer "mhp.compute";
      counts [ "mhp.iterations"; "mhp.fact_size" ];
      layer "locks.compute";
      counts [ "locks.spans" ];
      layer "pcg.compute";
      layer "svfg.build";
      counts [ "svfg.nodes"; "svfg.edges"; "svfg.thread_edges" ];
      layer "singletons.compute";
      layer "sparse.solve";
      counts [ "sparse.iterations"; "sparse.pts_entries" ];
      layer "races.detect";
      counts [ "races.count" ];
      [ ("pipeline.unattributed_s", "s"); ("pipeline.tracing_overhead_s", "s") ];
      [ ("engine.load_s", "s") ];
      List.map
        (fun p -> ("edit." ^ p ^ "_s", "s"))
        [ "andersen"; "threads"; "mhp"; "locks"; "svfg"; "sparse"; "unattributed" ];
      [ ("edit.alloc_mw", "Mwords") ];
      counts
        [
          "edit.units";
          "edit.dirty_units";
          "edit.copied_facts";
          "edit.andersen_propagations";
          "edit.sparse_propagations";
          "edit.fallbacks";
        ];
      [ ("protocol.points_to_us", "us"); ("protocol.races_us", "us") ];
      List.map
        (fun s -> ("program." ^ s.Fsam_workloads.Suite.name ^ ".verdict_s", "s"))
        Fsam_workloads.Suite.all;
    ]

let workloads = [ "paper_suite"; "synth_cold"; "serve_edit" ]

(* -- one run ------------------------------------------------------------------- *)

type run_opts = {
  seed : int;
  trace : bool;
  budget : float option;  (** seconds; [None] = the smallest fixed run *)
  pins : Checks.pin list;
  tamper : ((int -> Fsam_dsa.Iset.t) -> int -> Fsam_dsa.Iset.t) option;
  only_programs : string list;  (** a subset of paper_suite *)
  tiny : bool;  (** the self-test's sizes *)
}

let run_workload o workload =
  let led = L.create () in
  (* every metric of the mode is printed; layers a workload does not run
     stay at 0 *)
  if o.trace then List.iter (fun (n, u) -> L.set led n 0. u) per_layer;
  let batch w =
    if o.trace then Batch.run_traced ?tamper:o.tamper led w ~seed:o.seed ~pins:o.pins
    else
      let budget = match o.budget with Some s -> Batch.Seconds s | None -> Batch.Passes 1 in
      Batch.run_timed ?tamper:o.tamper led w ~seed:o.seed ~budget ~pins:o.pins
  in
  let notes =
    match workload with
    | "paper_suite" -> batch (Batch.paper_suite ~only:o.only_programs ())
    | "synth_cold" ->
      batch
        (if o.tiny then
           Batch.synth_cold ~params:Fsam_workloads.Minic_synth.quick ~key:"synth_cold/small" ()
         else Batch.synth_cold ())
    | "serve_edit" ->
      let base = if o.tiny then Some Fsam_workloads.Minic_synth.quick else None in
      if o.trace then Serve_edit.run_traced ?base led ~seed:o.seed ~pins:o.pins
      else
        let budget =
          match o.budget with Some s -> Serve_edit.Seconds s | None -> Serve_edit.Edits 3
        in
        Serve_edit.run_timed ?base led ~seed:o.seed ~budget ~pins:o.pins
    | w -> invalid_arg ("unknown workload " ^ w)
  in
  let expected = if o.trace then per_layer else end_to_end in
  List.iter
    (fun (n, _) ->
      match List.find_opt (fun (m, _, _) -> m = n) (L.metrics led) with
      | Some (_, v, _) when Float.is_finite v -> ()
      | _ -> L.op led ~what:"metrics" [ Error (n ^ " was not measured") ])
    expected;
  led.L.metrics <-
    List.filter (fun (n, _, _) -> List.mem_assoc n expected) (L.metrics led);
  (led, notes)

(* -- labels -------------------------------------------------------------------- *)

let cpu_model () =
  try
    let ic = open_in "/proc/cpuinfo" in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let rec scan () =
          match String.split_on_char ':' (input_line ic) with
          | k :: v :: _ when String.trim k = "model name" -> String.trim v
          | _ -> scan ()
        in
        scan ())
  with Sys_error _ | End_of_file -> "unknown"

let labels ~seed =
  let env k = Option.value ~default:"unset" (Sys.getenv_opt k) in
  J.Obj
    [
      ("commit", J.String (env "FSAM_BENCH_COMMIT"));
      ("tree", J.String (env "FSAM_BENCH_TREE"));
      ("seed", J.Int seed);
      ("nproc", J.Int (Domain.recommended_domain_count ()));
      ("cpu", J.String (cpu_model ()));
      ("ocaml", J.String Sys.ocaml_version);
      ("OCAMLRUNPARAM", J.String (env "OCAMLRUNPARAM"));
    ]

let print_run ~workload ~seed (led, notes) =
  Printf.printf "# workload %s\n" workload;
  Printf.printf "# labels %s\n" (J.to_string ~minify:true (labels ~seed));
  List.iter (Printf.printf "# %s\n") (notes @ L.notes led);
  List.iter (fun (n, v, u) -> Printf.printf "metric %-34s %14.6f %s\n" n v u) (L.metrics led);
  List.iter (Printf.printf "check FAILED %s\n") (L.failures led);
  Printf.printf "failed_pct %.3f %% (%d of %d operations)\n"
    (100. *. float_of_int led.L.failed /. float_of_int (max 1 led.L.attempted))
    led.L.failed led.L.attempted;
  print_endline (J.to_string ~minify:true (L.result_json led))

(* -- pins ---------------------------------------------------------------------- *)

(* Print the pin entries of every input, the self-test's small ones
   included, as OCaml for [Checks.pins]. *)
let print_pins () =
  let entry key (fp : Checks.fingerprint) =
    Printf.printf "    { key = %S; fp = { digest = %S; races = %d; pts_entries = %d } };\n%!" key
      fp.Checks.digest fp.Checks.races fp.Checks.pts_entries
  in
  let batch w =
    List.iter
      (fun inp ->
        let v = Batch.verdict inp in
        entry (w.Batch.key inp) (Checks.fingerprint v.Batch.d v.Batch.races))
      (w.Batch.inputs 1)
  in
  let serve base =
    let eng = Fsam_serve.Engine.create () in
    match Fsam_serve.Engine.load eng (Fsam_workloads.Minic_synth.generate (Serve_edit.program ?base ())) with
    | Ok li ->
      entry (Serve_edit.pin_key base)
        {
          Checks.digest = li.Fsam_serve.Engine.l_digest;
          races = li.Fsam_serve.Engine.l_races;
          pts_entries =
            Fsam_core.Sparse.pts_entries (Fsam_serve.Engine.driver eng).Fsam_core.Driver.sparse;
        }
    | Error e -> failwith e
  in
  batch (Batch.paper_suite ());
  batch (Batch.synth_cold ());
  batch (Batch.synth_cold ~params:Fsam_workloads.Minic_synth.quick ~key:"synth_cold/small" ());
  serve None;
  serve (Some Fsam_workloads.Minic_synth.quick)

(* -- self-test ----------------------------------------------------------------- *)

let spec_metrics spec key =
  match J.member key spec with
  | Some (J.List ms) ->
    List.map
      (fun m ->
        match (J.member "name" m, J.member "unit" m) with
        | Some (J.String n), Some (J.String u) -> (n, u)
        | _ -> failwith ("malformed metric in " ^ key))
      ms
  | _ -> failwith ("BENCHMARK.json has no " ^ key)

(* Tiny sizes, fixed iteration counts: every workload in both modes prints
   exactly the metrics BENCHMARK.json names, with their units, and passes
   its checks; a corrupted pin and a deliberately unsound result are each
   counted as failed operations. *)
let selftest spec_path =
  let spec =
    match J.of_string (In_channel.with_open_bin spec_path In_channel.input_all) with
    | Ok j -> j
    | Error e -> failwith (spec_path ^ ": " ^ e)
  in
  let problems = ref [] in
  let expect ok what = if not ok then problems := what :: !problems in
  expect (spec_metrics spec "end_to_end" = end_to_end) "end_to_end metrics differ from BENCHMARK.json";
  expect (spec_metrics spec "per_layer" = per_layer) "per_layer metrics differ from BENCHMARK.json";
  let base =
    {
      seed = 1;
      trace = false;
      budget = None;
      pins = Checks.pins;
      tamper = None;
      only_programs = [ "word_count"; "ferret" ];
      tiny = true;
    }
  in
  List.iter
    (fun workload ->
      List.iter
        (fun trace ->
          let led, _ = run_workload { base with trace } workload in
          let what = Printf.sprintf "%s trace %b" workload trace in
          let want = if trace then per_layer else end_to_end in
          expect
            (List.map (fun (n, _, u) -> (n, u)) (L.metrics led) = want)
            (what ^ ": printed metrics or units differ");
          expect (led.L.failed = 0 && led.L.attempted > 0)
            (what ^ ": failed operations: " ^ String.concat "; " (L.failures led));
          if not trace then
            List.iter
              (fun (n, v, _) -> expect (v > 0.) (Printf.sprintf "%s: %s = %g" what n v))
              (L.metrics led))
        [ false; true ])
    workloads;
  (* both must fail for the reason planted, not another *)
  let fails_with led why =
    List.exists
      (fun f ->
        let n = String.length why in
        let rec at i = i + n <= String.length f && (String.sub f i n = why || at (i + 1)) in
        at 0)
      (L.failures led)
  in
  let corrupted =
    List.map
      (fun p ->
        if p.Checks.key = "paper_suite/word_count" then
          { p with Checks.fp = { p.Checks.fp with Checks.pts_entries = p.Checks.fp.pts_entries + 1 } }
        else p)
      Checks.pins
  in
  let led, _ =
    run_workload { base with pins = corrupted; only_programs = [ "word_count" ] } "paper_suite"
  in
  expect (fails_with led "pin mismatch") "a corrupted pin passed";
  let led, _ =
    run_workload
      { base with tamper = Some (fun _ _ -> Fsam_dsa.Iset.empty); only_programs = [ "ferret" ] }
      "paper_suite"
  in
  expect (fails_with led "unsound vs interpreter") "an unsound result passed";
  match !problems with
  | [] -> print_endline "fsambench self-test: ok"
  | ps ->
    List.iter (Printf.eprintf "fsambench self-test: %s\n") (List.rev ps);
    exit 1

(* -- command line -------------------------------------------------------------- *)

let () =
  let workload = ref "" and seed = ref 1 and seconds = ref 0 and trace = ref 0 in
  let selftest_mode = ref false and spec = ref "BENCHMARK.json" and pins_mode = ref false in
  Arg.parse
    [
      ("--workload", Arg.Set_string workload, "W  " ^ String.concat " | " workloads);
      ("--seed", Arg.Set_int seed, "N  workload seed");
      ("--seconds", Arg.Set_int seconds, "S  measuring time of one run");
      ("--trace", Arg.Set_int trace, "0|1  end-to-end (0) or per-layer (1) run");
      ("--selftest", Arg.Set selftest_mode, " run the self-test at tiny sizes");
      ("--spec", Arg.Set_string spec, "FILE  BENCHMARK.json for the self-test");
      ("--pins", Arg.Set pins_mode, " print the pin entries of every input");
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "fsambench --workload W --seed N --seconds S --trace 0|1";
  if !selftest_mode then selftest !spec
  else if !pins_mode then print_pins ()
  else begin
    if not (List.mem !workload workloads) then begin
      prerr_endline ("fsambench: --workload must be one of " ^ String.concat ", " workloads);
      exit 2
    end;
    if !trace <> 0 && !trace <> 1 then begin
      prerr_endline "fsambench: --trace must be 0 or 1";
      exit 2
    end;
    let o =
      {
        seed = !seed;
        trace = !trace = 1;
        budget = Some (float_of_int (max 1 !seconds));
        pins = Checks.pins;
        tamper = None;
        only_programs = [];
        tiny = false;
      }
    in
    print_run ~workload:!workload ~seed:!seed (run_workload o !workload)
  end
