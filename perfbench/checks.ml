(* The outputs-correct gate. Every check returns [Ok ()] or [Error why];
   the workloads count a failed check as a failed operation and go on, so
   a wrong result shows in [failed] instead of aborting the run. All checks
   run outside the timed windows. *)

open Fsam_ir
module D = Fsam_core.Driver
module Iset = Fsam_dsa.Iset
module I = Fsam_interp.Interp

(* What the byte-identity contract pins for one analysed program. *)
type fingerprint = { digest : string; races : int; pts_entries : int }

let fingerprint (d : D.t) races =
  {
    digest = Fsam_memssa.Svfg.digest d.D.svfg;
    races = List.length races;
    pts_entries = Fsam_core.Sparse.pts_entries d.D.sparse;
  }

let pp_fp fp = Printf.sprintf "digest %s races %d pts_entries %d" fp.digest fp.races fp.pts_entries

(* Results pinned at the commit that added the benchmark, per input
   ("paper_suite/x264", "synth_cold", "serve_edit/load"). No input depends
   on the run's seed. Regenerate with [fsambench --pins]. *)
type pin = { key : string; fp : fingerprint }

let pins : pin list =
  [
    { key = "paper_suite/word_count"; fp = { digest = "9eb3d7b5e1a038e5aaa4580b4211678f"; races = 167; pts_entries = 3217 } };
    { key = "paper_suite/kmeans"; fp = { digest = "5412023ef2ce87b0a49a99d81abcad76"; races = 904; pts_entries = 10999 } };
    { key = "paper_suite/radiosity"; fp = { digest = "a0976eefc95dcec7e3a16c8b43877ab0"; races = 87; pts_entries = 4093 } };
    { key = "paper_suite/automount"; fp = { digest = "e6eeb479e6387e98808ad1f25114b843"; races = 0; pts_entries = 5070 } };
    { key = "paper_suite/ferret"; fp = { digest = "483d97f3c29a63211c717fce3c98a4aa"; races = 1320; pts_entries = 8403 } };
    { key = "paper_suite/bodytrack"; fp = { digest = "dce5ce85a923409d4afbc3c90651f44e"; races = 2094; pts_entries = 15661 } };
    { key = "paper_suite/httpd_server"; fp = { digest = "381034906611f32780c19e2df3b93550"; races = 3054; pts_entries = 95994 } };
    { key = "paper_suite/mt_daapd"; fp = { digest = "848b2683bc4bf9c4a081b5367b08fd40"; races = 5009; pts_entries = 163672 } };
    { key = "paper_suite/raytrace"; fp = { digest = "ed713cf47c197db1aac3097f2f1d7b1b"; races = 23356; pts_entries = 1677953 } };
    { key = "paper_suite/x264"; fp = { digest = "773dbe01a6dffe96ffc18fa2e8c6ce28"; races = 15594; pts_entries = 385536 } };
    { key = "synth_cold"; fp = { digest = "5329ba7e7beba46f2c967a959e13cbfb"; races = 3266; pts_entries = 774641 } };
    { key = "synth_cold/small"; fp = { digest = "3aa15ad16a9f1b0946552b102e9c25da"; races = 69; pts_entries = 5667 } };
    { key = "serve_edit/load"; fp = { digest = "06f6668a95fc393be0443fc68573965f"; races = 527; pts_entries = 317714 } };
    { key = "serve_edit/small/load"; fp = { digest = "3aa15ad16a9f1b0946552b102e9c25da"; races = 69; pts_entries = 5667 } };
  ]

let check_pin pins ~key fp =
  match List.find_opt (fun p -> p.key = key) pins with
  | None -> Error ("no pin for " ^ key)
  | Some p when p.fp = fp -> Ok ()
  | Some p -> Error (Printf.sprintf "pin mismatch: got %s, pinned %s" (pp_fp fp) (pp_fp p.fp))

let same_fingerprint ~what a b =
  if a = b then Ok ()
  else Error (Printf.sprintf "%s differs: %s vs %s" what (pp_fp a) (pp_fp b))

(* Soundness against the independent interpreter: every top-level and
   memory fact observed on a seeded random schedule must be in FSAM's
   result. [pt] and [mem] are the result under test. Returns the number of
   observed facts outside it, with the first one. *)
let interp_violations ~seed ~schedules prog ~pt ~mem =
  let n = ref 0 and first = ref "" in
  let miss why =
    if !n = 0 then first := why;
    incr n
  in
  for s = 0 to schedules - 1 do
    let r = I.run ~seed:((seed * 7919) + s) prog in
    List.iter
      (fun o ->
        if not (Iset.mem o.I.obs_obj (pt o.I.obs_var)) then
          miss
            (Printf.sprintf "schedule %d observed %s in pt(%s) at gid %d" s
               (Prog.obj_name prog o.I.obs_obj)
               (Prog.var_name prog o.I.obs_var)
               o.I.obs_gid))
      r.I.observations;
    List.iter
      (fun (l, tgt) ->
        if not (Iset.mem tgt (mem l)) then
          miss
            (Printf.sprintf "schedule %d observed %s holding %s" s (Prog.obj_name prog l)
               (Prog.obj_name prog tgt)))
      r.I.mem_facts
  done;
  (!n, !first)

(* Whether the thread model joins a loop-forked thread: the symmetric
   fork/join-loop rule of paper Figure 11 (DESIGN.md section 5), which
   treats a join loop over a handle array as joining every thread the fork
   loop started. The interpreter keeps one memory cell per array object,
   so there every fork overwrites the same handle and the join loop joins
   only the last thread: it runs executions in which the other threads
   outlive the join loop, which the modelled program cannot have. On such
   programs the interpreter is not an oracle for FSAM's result. *)
let joins_loop_forked_thread tm =
  let module T = Fsam_mta.Threads in
  let found = ref false in
  for iid = 0 to T.n_insts tm - 1 do
    if List.exists (T.is_multi tm) (T.join_kills tm iid) then found := true
  done;
  !found

(* The FSAM ⊆ Andersen ladder on every top-level variable. *)
let ladder prog ~pt ~andersen =
  let bad = ref None in
  for v = Prog.n_vars prog - 1 downto 0 do
    if not (Iset.subset (pt v) (andersen v)) then bad := Some v
  done;
  match !bad with
  | None -> Ok ()
  | Some v -> Error (Printf.sprintf "pt_fsam(%s) not within pt_andersen" (Prog.var_name prog v))

(* All oracle checks of one analysed program: interpreter containment
   where the interpreter is an oracle (otherwise its count goes to
   [note]), the ladder and the pin. [tamper] replaces the top-level
   points-to function under test (the self-test plants an unsound result
   with it). *)
let program_checks ?(tamper = Fun.id) ~note ~pins ~key ~seed ~schedules (d : D.t) fp =
  let pt = tamper (fun v -> Fsam_core.Sparse.pt_top d.D.sparse v) in
  let n, first =
    interp_violations ~seed ~schedules d.D.prog ~pt
      ~mem:(fun o -> Fsam_core.Sparse.pt_obj_anywhere d.D.sparse o)
  in
  let interp =
    if n = 0 then Ok ()
    else if joins_loop_forked_thread d.D.tm then begin
      note
        (Printf.sprintf
           "%s: interpreter saw %d facts outside FSAM's result (first: %s); not counted, the \
            program joins loop-forked threads through a handle array"
           key n first);
      Ok ()
    end
    else Error (Printf.sprintf "unsound vs interpreter: %d facts, first: %s" n first)
  in
  [
    interp;
    ladder d.D.prog ~pt ~andersen:(fun v -> Fsam_andersen.Solver.pt_var d.D.ast v);
    check_pin pins ~key fp;
  ]
