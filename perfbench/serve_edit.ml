(* The [serve_edit] workload: one closed-loop client of the resident
   daemon, calling [Protocol.handle_line] in process so requests take the
   daemon's real path without socket noise.

   Set-up generates the program and loads it (several times, for a steady
   median). The client then replays a seeded script of single-function
   edits, the two kinds the [bench serve] tier uses: shape-preserving
   [replace] edits spread over both modules and one shape-changing
   [append] edit, which forces pre-phase fallbacks. After each edit it asks
   for [races] and sends a burst of resident [points-to] / [alias] / [mhp]
   queries. Last, it submits edits with ["async": true], each time keeps
   querying back-to-back for as long as a synchronous edit takes, then
   sends [edit-wait]: reads beside a write. *)

open Fsam_ir
module P = Fsam_serve.Protocol
module E = Fsam_serve.Engine
module J = Fsam_obs.Json
module Ast = Fsam_frontend.Ast
module L = Ledger
module C = Checks

(* The program is the preset's own (generator seed 1), for the reason
   given at [Batch.synth_cold]; the run's seed drives the edit order and the
   query spread. *)
let program ?(base = { Fsam_workloads.Minic_synth.large with modules = 2 }) () = base

(* The pin of the initial load; [base] is the self-test's small program. *)
let pin_key = function None -> "serve_edit/load" | Some _ -> "serve_edit/small/load"

(* -- the client --------------------------------------------------------------- *)

type client = { eng : E.t; srv : P.t; mutable next_id : int }

let connect () =
  let eng = E.create () in
  { eng; srv = P.create eng; next_id = 0 }

let close c = Fsam_serve.Stats.close (P.stats c.srv)

(* One request: its reply and the client-side wall from submit to reply. *)
let send c fields =
  c.next_id <- c.next_id + 1;
  let line = J.to_string ~minify:true (J.Obj (("id", J.Int c.next_id) :: fields)) in
  let t0 = L.now_s () in
  let reply = P.handle_line c.srv line in
  (reply, L.now_s () -. t0)

let ok reply =
  match J.member "ok" reply with
  | Some (J.Bool true) -> Ok ()
  | _ -> Error ("not ok: " ^ J.to_string ~minify:true reply)

(* A request counted as one operation, with any further checks. *)
let request led c ~what ?(checks = fun _ -> []) fields =
  let reply, dt = send c fields in
  L.op led ~what (ok reply :: checks reply);
  (reply, dt)

(* The answer part of a reply: everything but id, sequence and timings. *)
let answer reply =
  match reply with
  | J.Obj kvs -> List.filter (fun (k, _) -> not (List.mem k [ "id"; "seq"; "us"; "cpu_us" ])) kvs
  | _ -> []

let num path reply =
  let rec go j = function
    | [] -> ( match j with J.Int i -> float_of_int i | J.Float f -> f | _ -> 0.)
    | k :: rest -> ( match J.member k j with Some j -> go j rest | None -> 0.)
  in
  go reply path

(* -- the edit script ---------------------------------------------------------- *)

(* The shape-preserving edit: retarget the first global publish "g.. = p.."
   of the body to the module heap handle. [None] when none is left. *)
let retarget body =
  let found = ref false in
  let body =
    List.map
      (function
        | Ast.Sassign (Ast.Eid g, Ast.Eid p)
          when (not !found) && g <> "" && g.[0] = 'g' && p <> "" && p.[0] = 'p' ->
          found := true;
          Ast.Sassign (Ast.Eid g, Ast.Eid "bh")
        | s -> s)
      body
  in
  if !found then Some body else None

(* The shape-changing edit: one more statement in the body. *)
let append ~m body = body @ [ Ast.Sassign (Ast.Eid (Printf.sprintf "g%d_0" m), Ast.Eid "bh") ]

(* Every function of the program in a seeded order: one round of the
   script. The third edit is the append. *)
let script_fns ~seed (p : Fsam_workloads.Minic_synth.params) =
  let fns =
    List.concat_map
      (fun m -> List.init p.chain_depth (fun d -> (m, Printf.sprintf "f%d_%d" m d)))
      (List.init p.modules Fun.id)
  in
  let rng = Random.State.make [| seed; 0xED17 |] in
  let keyed = List.map (fun f -> (Random.State.bits rng, f)) fns in
  Array.of_list (List.map snd (List.sort compare keyed))

let append_at = 2

(* Edit [i] of the script applied to [ast]: the function edited, its new
   definition as source, and the new program. *)
let edit_of fns ast i =
  let n = Array.length fns in
  let rec try_fn k =
    if k = n then failwith "edit script exhausted: no global publish left"
    else begin
      let m, fn = fns.((i + k) mod n) in
      let edited = ref None in
      let ast' =
        List.map
          (function
            | Ast.Dfun f when f.Ast.fname = fn -> (
              let body = if i = append_at then Some (append ~m f.Ast.body) else retarget f.Ast.body in
              match body with
              | Some body ->
                let f' = { f with Ast.body } in
                edited := Some f';
                Ast.Dfun f'
              | None -> Ast.Dfun f)
            | d -> d)
          ast
      in
      match !edited with
      | Some f' -> (fn, Fsam_frontend.Pretty.to_string [ Ast.Dfun f' ], ast')
      | None -> try_fn (k + 1)
    end
  in
  try_fn 0

(* -- queries ------------------------------------------------------------------- *)

(* A seeded spread of resident queries, by variable name as a client sends
   them. *)
let query_set ~seed (d : Fsam_core.Driver.t) n =
  let prog = d.Fsam_core.Driver.prog in
  let rng = Random.State.make [| seed; 0x9E37 |] in
  let var () =
    J.String (Batch.base_name (Prog.var_name prog (Random.State.int rng (Prog.n_vars prog))))
  in
  let gid () = J.Int (Random.State.int rng (Prog.n_stmts prog)) in
  Array.init n (fun i ->
      match i mod 3 with
      | 0 -> [ ("op", J.String "points-to"); ("var", var ()) ]
      | 1 ->
        let a = var () in
        [ ("op", J.String "alias"); ("a", a); ("b", var ()) ]
      | _ ->
        let g = gid () in
        [ ("op", J.String "mhp"); ("g1", g); ("g2", gid ()) ])

let n_queries = 600
let burst = 200
let async_edits = 3

(* -- set-up ------------------------------------------------------------------- *)

type setup = {
  client : client;
  source : string;
  setup_walls : float list;
  verdicts : float list;  (** load + races *)
  loads : float list;
}

let reps = 3

(* [reps] fresh daemons, each generating and loading the program; the last
   one stays for the session. *)
let setup led ~pins ~base =
  let rec go k (walls, verdicts, loads) prev =
    Option.iter close prev;
    Gc.full_major ();
    let t0 = L.now_s () in
    let source = Fsam_workloads.Minic_synth.generate (program ?base ()) in
    let c = connect () in
    let load, dt_load =
      request led c ~what:"load" [ ("op", J.String "load"); ("source", J.String source) ]
    in
    let wall = L.now_s () -. t0 in
    let _, dt_races = request led c ~what:"races" [ ("op", J.String "races") ] in
    if E.loaded c.eng then begin
      let fp =
        {
          C.digest = (match J.member "svfg_digest" load with Some (J.String s) -> s | _ -> "");
          races = int_of_float (num [ "races" ] load);
          pts_entries = Fsam_core.Sparse.pts_entries (E.driver c.eng).Fsam_core.Driver.sparse;
        }
      in
      L.op led ~what:"load pin" [ C.check_pin pins ~key:(pin_key base) fp ]
    end;
    let acc = (wall :: walls, (dt_load +. dt_races) :: verdicts, dt_load :: loads) in
    if k < reps then go (k + 1) acc (Some c)
    else
      let setup_walls, verdicts, loads = acc in
      { client = c; source; setup_walls; verdicts; loads }
  in
  go 1 ([], [], []) None

(* -- the session --------------------------------------------------------------- *)

type budget = Seconds of float | Edits of int

(* One edit cycle: the edit, then [races], then a burst of queries. Returns
   the new AST, the edit reply with its wall, and the races reply with its
   wall. *)
let cycle led c ~fns ~ast ~qs ~idle ~on_query i =
  let fn, code, ast' = edit_of fns ast i in
  let a0 = L.alloc_words () in
  let e_reply, dt_edit =
    request led c ~what:("edit " ^ fn)
      [ ("op", J.String "edit"); ("fn", J.String fn); ("code", J.String code) ]
  in
  let edit_words = L.alloc_words () -. a0 in
  let r_reply, dt_races = request led c ~what:"races" [ ("op", J.String "races") ] in
  for k = 0 to burst - 1 do
    let q = qs.((i * burst + k) mod Array.length qs) in
    let reply, dt = request led c ~what:"query" q in
    L.Samples.add idle (dt *. 1e6);
    on_query q reply
  done;
  (ast', (e_reply, dt_edit, edit_words), (r_reply, dt_races))

(* The final generation must equal a fresh cold load of the final source:
   SVFG digest, race report and every queried points-to set. *)
let final_check led c ~ast ~qs =
  let src = Fsam_frontend.Pretty.to_string ast in
  let cold = connect () in
  let _ = request led cold ~what:"cold reference load" [ ("op", J.String "load"); ("source", J.String src) ] in
  let checks =
    if not (E.loaded cold.eng && E.loaded c.eng) then [ Error "no final generation to compare" ]
    else
      let dg e = Fsam_memssa.Svfg.digest (E.driver e).Fsam_core.Driver.svfg in
      let pts_same =
        Array.for_all
          (fun q ->
            match List.assoc_opt "op" q with
            | Some (J.String "points-to") -> answer (fst (send c q)) = answer (fst (send cold q))
            | _ -> true)
          qs
      in
      [
        (if dg c.eng = dg cold.eng then Ok () else Error "SVFG digest differs from a cold load");
        (if E.races c.eng = E.races cold.eng then Ok () else Error "races differ from a cold load");
        (if pts_same then Ok () else Error "points-to differs from a cold load");
      ]
  in
  L.op led ~what:"final generation vs cold load" checks;
  close cold

let run_timed ?base led ~seed ~budget ~pins =
  let s = setup led ~pins ~base in
  let c = s.client in
  let fns = script_fns ~seed (program ?base ()) in
  let ast = ref (Fsam_frontend.Parser.parse_string s.source) in
  let qs = query_set ~seed (E.driver c.eng) n_queries in
  let idle = L.Samples.create () and busy = L.Samples.create () in
  let edits = ref [] and reverdicts = ref [] in
  let t_start = L.now_s () in
  let rec loop i =
    let ast', (_, dt_edit, _), (_, dt_races) =
      cycle led c ~fns ~ast:!ast ~qs ~idle ~on_query:(fun _ _ -> ()) i
    in
    ast := ast';
    edits := dt_edit :: !edits;
    reverdicts := (dt_edit +. dt_races) :: !reverdicts;
    let again =
      match budget with
      | Edits n -> i + 1 < n
      | Seconds b ->
        (* whole rounds over the script's functions, so every run edits
           each function equally often; another round if it fits *)
        let round = Array.length fns in
        let rounds = float_of_int ((i + 1) / round) in
        let elapsed = L.now_s () -. t_start in
        (i + 1) mod round <> 0 || elapsed *. (rounds +. 1.) /. rounds <= b
    in
    if again then loop (i + 1) else i + 1
  in
  let n_edits = loop 0 in
  (* reads beside a write: each async edit is queried for as long as a
     synchronous edit takes, and must answer from the pinned generation *)
  let window = L.median !edits in
  for a = 0 to async_edits - 1 do
    let pinned = Array.map (fun q -> answer (fst (request led c ~what:"query" q))) qs in
    let fn, code, ast' = edit_of fns !ast (n_edits + a) in
    ast := ast';
    ignore
      (request led c ~what:("async edit " ^ fn)
         [
           ("op", J.String "edit");
           ("fn", J.String fn);
           ("code", J.String code);
           ("async", J.Bool true);
         ]);
    let t0 = L.now_s () in
    let k = ref 0 in
    while L.now_s () -. t0 < window || !k = 0 do
      let j = !k mod Array.length qs in
      let _, dt =
        request led c ~what:"busy query" qs.(j) ~checks:(fun r ->
            [ (if answer r = pinned.(j) then Ok () else Error "answer is not the pinned generation's") ])
      in
      L.Samples.add busy (dt *. 1e6);
      incr k
    done;
    ignore (request led c ~what:"edit-wait" [ ("op", J.String "edit-wait") ]);
    ignore (request led c ~what:"races" [ ("op", J.String "races") ])
  done;
  (* the daemon's memory, before the check loads a second engine *)
  let peak_rss = L.peak_rss_mb () in
  final_check led c ~ast:!ast ~qs;
  close c;
  L.set led "verdict_s" (L.median s.verdicts) "s";
  L.set led "setup_s" (L.median s.setup_walls) "s";
  L.set led "peak_rss_mb" peak_rss "MB";
  L.set led "edit_s" (L.median !edits) "s";
  L.set led "reverdict_s" (L.median !reverdicts) "s";
  L.set led "query_p50_us" (L.Samples.percentile idle 0.50) "us";
  L.set led "query_p99_us" (L.Samples.percentile idle 0.99) "us";
  L.set led "busy_query_p99_us" (L.Samples.windowed_p99 busy) "us";
  [
    Printf.sprintf "edits %d synchronous + %d async" n_edits async_edits;
    L.Samples.summary "idle queries" idle;
    L.Samples.summary "busy queries" busy;
  ]

(* The traced run: the batch layers on the loaded program (what [load]
   runs, so its result must equal the load's pin), then a fixed script of
   edits whose replies carry the planner's per-phase walls and work counts.
   Walls are means per edit; counts are totals over the script, so they
   repeat exactly. *)
let trace_edits = 6

let run_traced ?base led ~seed ~pins =
  let s = setup led ~pins ~base in
  let c = s.client in
  L.set led "engine.load_s" (L.median s.loads) "s";
  let lines =
    Batch.run_traced led
      {
        Batch.w_name = "serve_edit";
        inputs = (fun _ -> [ Batch.Src ("serve", s.source) ]);
        key = (fun _ -> pin_key base);
      }
      ~seed ~pins
  in
  let fns = script_fns ~seed (program ?base ()) in
  let ast = ref (Fsam_frontend.Parser.parse_string s.source) in
  let qs = query_set ~seed (E.driver c.eng) n_queries in
  let idle = L.Samples.create () in
  let pts_us = ref [] and races_us = ref [] in
  let on_query q reply =
    if List.assoc_opt "op" q = Some (J.String "points-to") then pts_us := num [ "us" ] reply :: !pts_us
  in
  let per_edit = float_of_int trace_edits in
  for i = 0 to trace_edits - 1 do
    let ast', (e, dt_edit, words), (r, _) = cycle led c ~fns ~ast:!ast ~qs ~idle ~on_query i in
    ast := ast';
    races_us := num [ "us" ] r :: !races_us;
    let phase k = num [ "phases"; k ] e in
    let phases = [ "andersen"; "threads"; "mhp"; "locks"; "svfg"; "sparse" ] in
    List.iter (fun k -> L.add led ("edit." ^ k ^ "_s") (phase (k ^ "_s") /. per_edit) "s") phases;
    let attributed = List.fold_left (fun acc k -> acc +. phase (k ^ "_s")) 0. phases in
    L.add led "edit.unattributed_s" ((dt_edit -. attributed) /. per_edit) "s";
    L.add led "edit.alloc_mw" (words /. 1e6) "Mwords";
    let count name path = L.add led name (num path e) "count" in
    count "edit.units" [ "incremental"; "units" ];
    count "edit.dirty_units" [ "incremental"; "dirty_units" ];
    count "edit.copied_facts" [ "incremental"; "copied_facts" ];
    count "edit.andersen_propagations" [ "work"; "andersen_propagations" ];
    count "edit.sparse_propagations" [ "work"; "sparse_propagations" ];
    L.add led "edit.fallbacks"
      (match J.member "fallbacks" e with Some (J.List l) -> float_of_int (List.length l) | _ -> 0.)
      "count"
  done;
  L.set led "protocol.points_to_us" (L.median !pts_us) "us";
  L.set led "protocol.races_us" (L.median !races_us) "us";
  final_check led c ~ast:!ast ~qs;
  close c;
  lines
