(* The batch workloads, [paper_suite] and [synth_cold]: a cold
   [Driver.run] then [Races.detect] per program, as a [fsam races] user pays
   it on every invocation, at one domain ([jobs] 1).

   A timed run analyses every program once per pass, for as many passes as
   fit the time budget; the first pass also checks each result. After the
   last pass the last program's result is queried, idle and while a
   background domain re-analyses the same input (the batch counterpart of
   the daemon's pinned generation during an async edit). A traced run analyses each program
   untraced, then calling the layers one at a time in [Driver] order, then
   untraced again; all three must agree. *)

open Fsam_ir
module D = Fsam_core.Driver
module Races = Fsam_core.Races
module Sparse = Fsam_core.Sparse
module Iset = Fsam_dsa.Iset
module Mta = Fsam_mta
module L = Ledger
module C = Checks

(* An IR input is built by its generator outside the timed window; a
   source input is parsed and lowered inside it. *)
type input = Ir of string * (unit -> Prog.t) | Src of string * string

let name = function Ir (n, _) | Src (n, _) -> n

let prepare = function
  | Ir (_, build) ->
    let p = build () in
    fun () -> p
  | Src (_, text) ->
    fun () -> Fsam_frontend.Lower.lower (Fsam_frontend.Parser.parse_string text)

type workload = {
  w_name : string;
  inputs : int -> input list;  (** from the seed; runs the generators *)
  key : input -> string;  (** pin key *)
}

let paper_suite ?(only = []) () =
  let specs =
    List.filter
      (fun s -> only = [] || List.mem s.Fsam_workloads.Suite.name only)
      Fsam_workloads.Suite.all
  in
  {
    w_name = "paper_suite";
    inputs =
      (fun _seed ->
        List.map
          (fun s ->
            let open Fsam_workloads.Suite in
            Ir (s.name, fun () -> s.build s.scale))
          specs);
    key = (fun i -> "paper_suite/" ^ name i);
  }

(* The program is the preset's own (generator seed 1, the program of the
   ROADMAP baseline table); the run's seed drives the interpreter schedules
   and the query spread. Across generator seeds the random call-site fan
   changes the number of calling contexts as 2^k along the 10-deep chains:
   the verdict ranged 3.6-7.9 s over five seeds, wider than any bound a
   regression check could use. *)
let synth_cold ?(params = { Fsam_workloads.Minic_synth.large with modules = 4 })
    ?(key = "synth_cold") () =
  {
    w_name = "synth_cold";
    inputs = (fun _seed -> [ Src ("synth", Fsam_workloads.Minic_synth.generate params) ]);
    key = (fun _ -> key);
  }

(* -- untraced and traced verdicts -------------------------------------------- *)

type verdict = { d : D.t; races : Races.race list; analysis_s : float; verdict_s : float }

let verdict inp =
  let front = prepare inp in
  Gc.full_major ();
  let t0 = L.now_s () in
  let d = D.run (front ()) in
  let t1 = L.now_s () in
  let races = Races.detect d in
  let t2 = L.now_s () in
  { d; races; analysis_s = t1 -. t0; verdict_s = t2 -. t0 }

(* The layers of [Driver.run], called one at a time in its order, each
   timed with its allocation into [led]. The instance graph is forced on
   its own before [Mhp.compute], which would otherwise pay for it. Returns
   the result, its races, the traced wall and the sum of the layer walls. *)
let traced led inp =
  let module A = Fsam_andersen.Solver in
  let cfg = D.default_config in
  let front = prepare inp in
  Fsam_obs.Span.reset ();
  Fsam_obs.Metrics.reset ();
  Gc.full_major ();
  let layers_s = ref 0. in
  let layer name f =
    let v, dt, words = L.timed f in
    layers_s := !layers_s +. dt;
    L.add led (name ^ "_s") dt "s";
    L.add led (name ^ "_alloc_mw") (words /. 1e6) "Mwords";
    v
  in
  let count name n = L.add led name (float_of_int n) "count" in
  let t0 = L.now_s () in
  let prog =
    match inp with
    | Src (_, text) ->
      let ast = layer "frontend.parse" (fun () -> Fsam_frontend.Parser.parse_string text) in
      layer "frontend.lower" (fun () -> Fsam_frontend.Lower.lower ast)
    | Ir _ -> front ()
  in
  layer "ir.validate" (fun () -> Validate.check_exn prog);
  let ast = layer "andersen.run" (fun () -> A.run prog) in
  let modref = layer "modref.compute" (fun () -> Fsam_andersen.Modref.compute prog ast) in
  let icfg = layer "icfg.build" (fun () -> Mta.Icfg.build prog ast) in
  let tm =
    layer "threads.build" (fun () ->
        Mta.Threads.build ~max_ctx_depth:cfg.D.max_ctx_depth prog ast icfg)
  in
  ignore (layer "threads.inst_graph" (fun () -> Mta.Threads.inst_graph tm));
  let mhp = layer "mhp.compute" (fun () -> Mta.Mhp.compute ~jobs:cfg.D.jobs tm) in
  let locks = layer "locks.compute" (fun () -> Mta.Locks.compute prog ast tm) in
  let pcg = layer "pcg.compute" (fun () -> Mta.Pcg.compute tm icfg) in
  let svfg =
    layer "svfg.build" (fun () ->
        Fsam_memssa.Svfg.build ~config:cfg.D.svfg ~jobs:cfg.D.jobs prog ast modref icfg tm mhp
          locks pcg)
  in
  let singleton =
    layer "singletons.compute" (fun () -> Fsam_core.Singletons.compute prog ast tm icfg)
  in
  let sparse =
    layer "sparse.solve" (fun () ->
        Sparse.solve ~scheduler:cfg.D.scheduler prog ast svfg ~singleton)
  in
  let times =
    { D.t_pre = 0.; t_thread_model = 0.; t_interleaving = 0.; t_lock = 0.; t_svfg = 0.; t_solve = 0. }
  in
  let d = { D.prog; ast; modref; icfg; tm; mhp; locks; pcg; svfg; sparse; times; prov = None } in
  let races = layer "races.detect" (fun () -> Races.detect d) in
  let total = L.now_s () -. t0 in
  count "ir.stmts" (Prog.n_stmts prog);
  count "andersen.iterations" (A.n_solver_iterations ast);
  count "andersen.pts_size" (A.total_pts_size ast);
  count "threads.insts" (Mta.Threads.n_insts tm);
  count "mhp.iterations" (Mta.Mhp.n_iterations mhp);
  count "mhp.fact_size" (Mta.Mhp.total_fact_size mhp);
  count "locks.spans" (Mta.Locks.n_spans locks);
  count "svfg.nodes" (Fsam_memssa.Svfg.n_nodes svfg);
  count "svfg.edges" (Fsam_memssa.Svfg.n_edges svfg);
  count "svfg.thread_edges" (Fsam_memssa.Svfg.n_thread_aware_edges svfg);
  count "sparse.iterations" (Sparse.n_iterations sparse);
  count "sparse.pts_entries" (Sparse.pts_entries sparse);
  count "races.count" (List.length races);
  (d, races, total, !layers_s)

(* -- resident queries on a result --------------------------------------------- *)

type query = Pts of string | Alias of string * string | Mhp of int * int
type answer = Objs of string list | Yes_no of bool

let base_name s = match String.index_opt s '#' with Some k -> String.sub s 0 k | None -> s

(* A seeded spread of points-to, alias and MHP queries over the program.
   Variables are named as a client names them: by their source name. *)
let queries ~seed ~name prog n =
  let rng = Random.State.make [| seed; Hashtbl.hash name |] in
  let var () = base_name (Prog.var_name prog (Random.State.int rng (Prog.n_vars prog))) in
  let gid () = Random.State.int rng (Prog.n_stmts prog) in
  Array.init n (fun i ->
      match i mod 3 with
      | 0 -> Pts (var ())
      | 1 ->
        let a = var () in
        Alias (a, var ())
      | _ ->
        let g = gid () in
        Mhp (g, gid ()))

(* A name resolves as the daemon resolves it: to the highest-numbered
   variable, i.e. the final SSA version, whose name or base name matches.
   The scan compares in place; the daemon's copies each base name, and
   that allocation made the latency of the scan jump between two levels
   from run to run (726 and 1114 us at one seed). *)
let rec same_prefix n s i k = i = k || (n.[i] = s.[i] && same_prefix n s (i + 1) k)

let resolve prog s =
  let k = String.length s in
  let best = ref (-1) in
  for v = 0 to Prog.n_vars prog - 1 do
    let n = Prog.var_name prog v in
    let len = String.length n in
    if (len = k || (len > k && n.[k] = '#')) && same_prefix n s 0 k then best := v
  done;
  !best

let answer (d : D.t) = function
  | Pts v -> Objs (List.map (Prog.obj_name d.D.prog) (Iset.elements (D.pt d (resolve d.D.prog v))))
  | Alias (a, b) -> Yes_no (D.alias d (resolve d.D.prog a) (resolve d.D.prog b))
  | Mhp (g1, g2) -> Yes_no (Mta.Mhp.mhp_stmt d.D.mhp g1 g2)

let ask samples d q =
  let t0 = Fsam_obs.Monotonic.now_ns () in
  let a = answer d q in
  L.Samples.add samples (float_of_int (Fsam_obs.Monotonic.now_ns () - t0) /. 1e3);
  a

(* Back-to-back queries on [v]'s result while another domain re-analyses
   the same input; every answer must equal the idle one. Returns the
   re-analysis and the number of differing answers. *)
let busy_phase busy inp (v : verdict) qs expected =
  let front = prepare inp in
  let finished = Atomic.make false in
  let dom =
    Domain.spawn (fun () ->
        Fun.protect
          ~finally:(fun () -> Atomic.set finished true)
          (fun () ->
            let d = D.run (front ()) in
            (d, Races.detect d)))
  in
  let differ = ref 0 and i = ref 0 in
  while not (Atomic.get finished) do
    let k = !i mod Array.length qs in
    if ask busy v.d qs.(k) <> expected.(k) then incr differ;
    incr i
  done;
  (Domain.join dom, !differ)

(* -- runs ----------------------------------------------------------------------- *)

type budget = Seconds of float | Passes of int

(* Idle queries come in bursts half a second apart: the host's speed
   drifts within seconds, and one 0.5 s burst of x264 queries gave
   medians 97-164 us from run to run. *)
let idle_bursts = 20
let idle_per_burst = 150
let schedules = 4

(* Input generation, repeated for a steady median: twenty times, a tenth
   of a second apart when [spaced], for the host's drift within seconds
   (the synth_cold generation alone takes 4-7 ms). *)
let setup_s w ~seed ~spaced =
  L.median
    (List.init 20 (fun i ->
         if spaced && i > 0 then Unix.sleepf 0.1;
         let (), dt, _ =
           L.timed (fun () ->
               List.iter (function Ir (_, b) -> ignore (b ()) | Src _ -> ()) (w.inputs seed))
         in
         dt))

let guard led ~what f =
  match f () with
  | v -> Some v
  | exception e ->
    L.op led ~what [ Error ("raised " ^ Printexc.to_string e) ];
    None

let run_timed ?tamper led w ~seed ~budget ~pins =
  (* the pauses that spread samples over time only matter when timing;
     the self-test's fixed-size runs skip them *)
  let spaced = match budget with Seconds _ -> true | Passes _ -> false in
  let setup = setup_s w ~seed ~spaced in
  let inputs = w.inputs seed in
  let n_inputs = List.length inputs in
  let firsts = Array.make n_inputs None in
  let idle = L.Samples.create () and busy = L.Samples.create () in
  (* Queries go to the last program: the largest of the suite (x264).
     Pooled over programs of different sizes, the latency distribution has
     one mode per program, and its median jumps between modes from run to
     run. *)
  let queried = n_inputs - 1 in
  (* idle queries, then queries beside a re-analysis of the same input *)
  let query_phases inp v fp =
    let what = name inp in
    let qs = queries ~seed ~name:what v.d.D.prog (idle_bursts * idle_per_burst) in
    let expected =
      Array.mapi
        (fun i q ->
          if spaced && i > 0 && i mod idle_per_burst = 0 then Unix.sleepf 0.5;
          ask idle v.d q)
        qs
    in
    let what = what ^ " re-analysis under queries" in
    match guard led ~what (fun () -> busy_phase busy inp v qs expected) with
    | None -> ()
    | Some ((d', races'), differ) ->
      L.op led ~what
        [
          C.same_fingerprint ~what:"re-analysis" fp (C.fingerprint d' races');
          (if differ = 0 then Ok ()
           else Error (Printf.sprintf "%d answers changed during re-analysis" differ));
        ]
  in
  (* the first pass also checks each result; later passes must reproduce
     it *)
  let first_extras i inp v fp =
    let what = name inp in
    firsts.(i) <- Some fp;
    L.op led ~what
      (C.program_checks ?tamper ~note:(L.note led) ~pins ~key:(w.key inp) ~seed ~schedules v.d fp)
  in
  (* the queried result of the latest pass; dropped when the next pass
     starts, so no two results of one program are ever held at once *)
  let last = ref None in
  (* one pass: the sums of the verdict and analysis walls *)
  let pass k =
    last := None;
    List.fold_left
      (fun (vs, an) (i, inp) ->
        let what = Printf.sprintf "%s pass %d" (name inp) k in
        match guard led ~what (fun () -> verdict inp) with
        | None -> (vs, an)
        | Some v ->
          let fp = C.fingerprint v.d v.races in
          if i = queried then last := Some (inp, v, fp);
          (if k = 1 then first_extras i inp v fp
           else
             L.op led ~what
               [
                 (match firsts.(i) with
                 | Some r -> C.same_fingerprint ~what:"result" r fp
                 | None -> Error "no first-pass result to compare with");
               ]);
          (vs +. v.verdict_s, an +. v.analysis_s))
      (0., 0.)
      (List.mapi (fun i inp -> (i, inp)) inputs)
  in
  (* the memory of one pass over the programs: read after the first, as
     later passes reuse a grown heap, and before the busy phase holds a
     second result *)
  let peak_rss = ref nan in
  (* passes while another fits in the budget; at least one *)
  let rec loop k measured acc =
    let ((v, _) as p) = pass k in
    if k = 1 then peak_rss := L.peak_rss_mb ();
    let measured = measured +. v and acc = p :: acc in
    let again =
      match budget with Passes n -> k < n | Seconds s -> measured +. v <= s
    in
    if again then loop (k + 1) measured acc else acc
  in
  let passes = loop 1 0. [] in
  Option.iter (fun (inp, v, fp) -> query_phases inp v fp) !last;
  let verdict_s = L.median (List.map fst passes) in
  L.set led "verdict_s" verdict_s "s";
  L.set led "setup_s" setup "s";
  L.set led "peak_rss_mb" !peak_rss "MB";
  L.set led "edit_s" (L.median (List.map snd passes)) "s";
  L.set led "reverdict_s" verdict_s "s";
  L.set led "query_p50_us" (L.Samples.percentile idle 0.50) "us";
  L.set led "query_p99_us" (L.Samples.percentile idle 0.99) "us";
  L.set led "busy_query_p99_us" (L.Samples.windowed_p99 busy) "us";
  [
    Printf.sprintf "passes %d over %d program(s)" (List.length passes) n_inputs;
    L.Samples.summary "idle queries" idle;
    L.Samples.summary "busy queries" busy;
  ]

(* Each program: untraced, traced, untraced again. The first pass also
   warms the heap, so the traced pass is compared with the second untraced
   one: both run on a grown heap, and the first run of a process pays for
   growing it. *)
let run_traced ?tamper led w ~seed ~pins =
  let inputs = w.inputs seed in
  let verdict_sum = ref 0. and traced_sum = ref 0. and layers_sum = ref 0. in
  List.iter
    (fun inp ->
      let what = name inp in
      match guard led ~what (fun () -> verdict inp) with
      | None -> ()
      | Some v ->
        let fp = C.fingerprint v.d v.races in
        L.op led ~what
          (C.program_checks ?tamper ~note:(L.note led) ~pins ~key:(w.key inp) ~seed ~schedules v.d fp);
        let reproduces ~what fp' races' =
          [
            C.same_fingerprint ~what fp fp';
            (if races' = v.races then Ok () else Error (what ^ ": race report differs"));
          ]
        in
        (match guard led ~what:(what ^ " traced") (fun () -> traced led inp) with
        | None -> ()
        | Some (d', races', total, layers) ->
          traced_sum := !traced_sum +. total;
          layers_sum := !layers_sum +. layers;
          L.op led ~what:(what ^ " traced")
            (reproduces ~what:"traced result" (C.fingerprint d' races') races'));
        match guard led ~what:(what ^ " again") (fun () -> verdict inp) with
        | None -> ()
        | Some v2 ->
          verdict_sum := !verdict_sum +. v2.verdict_s;
          if w.w_name = "paper_suite" then
            L.set led (Printf.sprintf "program.%s.verdict_s" what) v2.verdict_s "s";
          L.op led ~what:(what ^ " again")
            (reproduces ~what:"second result" (C.fingerprint v2.d v2.races) v2.races))
    inputs;
  L.set led "pipeline.unattributed_s" (!verdict_sum -. !layers_sum) "s";
  L.set led "pipeline.tracing_overhead_s" (!traced_sum -. !verdict_sum) "s";
  [ Printf.sprintf "untraced verdict %.3fs, traced %.3fs" !verdict_sum !traced_sum ]
