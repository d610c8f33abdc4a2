(* Differential tests of the sparse thread-oblivious def-use builder
   against the dense reference in [Svfg_dense], plus its work counters. *)

open Fsam_dsa
module D = Fsam_core.Driver
module Svfg = Fsam_memssa.Svfg
module M = Fsam_obs.Metrics

let rebuild ?(dense = false) ?(prov = false) ?config (d : D.t) =
  let prov = if prov then Some (Fsam_prov.create ()) else None in
  let oblivious = if dense then Some Svfg_dense.build else None in
  Svfg.build ?config ?prov ?oblivious d.D.prog d.D.ast d.D.modref d.D.icfg d.D.tm d.D.mhp
    d.D.locks d.D.pcg

(* Everything the two builders must agree on, in structural keys: every
   edge with its kind (provenance on) and owner, the node set, the racy
   sets. Recording changes kinds only, so the suite-wide checks run with it
   on; synth quick also covers the recorder-off path. *)
let structure g =
  let key = Svfg.node_key g in
  let edges = ref [] and nodes = ref [] in
  Svfg.iter_nodes g (fun v _ ->
      nodes := key v :: !nodes;
      List.iter
        (fun (o, w) ->
          edges :=
            ( key v,
              o,
              key w,
              Svfg.edge_kind g ~src:v ~obj:o ~dst:w,
              Svfg.edge_owner g ~src:v ~obj:o ~dst:w )
            :: !edges)
        (Svfg.o_succs g v));
  let racy = ref [] in
  for gid = Fsam_ir.Prog.n_stmts (Svfg.prog g) - 1 downto 0 do
    let r = Svfg.racy_objs g gid in
    if not (Iset.is_empty r) then racy := (gid, Iset.elements r) :: !racy
  done;
  (List.sort compare !edges, List.sort compare !nodes, !racy)

(* The layout the downstream solver's visit order depends on: node
   numbering and the order of every successor list. Numbering always
   matches (nodes are interned on a statement's first visit, and both
   builders first visit statements in CFG BFS order). Successor order
   matches on the programs whose solver counts the bench gates pin; in
   general a def can reach two uses in a different order than the dense
   pass saw, which reorders a list but never changes its contents. *)
let numbering g = List.init (Svfg.n_nodes g) (Svfg.node_key g)

let layout g =
  List.init (Svfg.n_nodes g) (fun v ->
      List.map (fun (o, w) -> (o, Svfg.node_key g w)) (Svfg.o_succs g v))

let check_same ~name ?(prov = false) ?(same_order = true) ?config (d : D.t) =
  let sparse = rebuild ~prov ?config d and dense = rebuild ~dense:true ~prov ?config d in
  let (es, ns, rs) = structure sparse and (ed, nd, rd) = structure dense in
  if es <> ed then begin
    let show (s, o, d, k, ow) =
      Printf.sprintf "%s -%d-> %s kind %d owner %s" s o d k
        (match ow with Some f -> string_of_int f | None -> "-")
    in
    let only a b = List.filter (fun e -> not (List.mem e b)) a in
    Alcotest.failf "%s: edges/kinds/owners differ: sparse only [%s], dense only [%s]" name
      (String.concat "; " (List.map show (only es ed)))
      (String.concat "; " (List.map show (only ed es)))
  end;
  if ns <> nd then Alcotest.failf "%s: node sets differ" name;
  if rs <> rd then Alcotest.failf "%s: racy sets differ" name;
  if numbering sparse <> numbering dense then
    Alcotest.failf "%s: node numbering differs" name;
  if same_order && layout sparse <> layout dense then
    Alcotest.failf "%s: successor order differs" name;
  Alcotest.(check string) (name ^ ": digest") (Svfg.digest dense) (Svfg.digest sparse)

let suite_prog name =
  let s = Option.get (Fsam_workloads.Suite.find name) in
  s.Fsam_workloads.Suite.build s.Fsam_workloads.Suite.scale

let test_suite () =
  List.iter
    (fun (s : Fsam_workloads.Suite.spec) ->
      let name = s.Fsam_workloads.Suite.name in
      check_same ~name ~prov:true (D.run (suite_prog name)))
    Fsam_workloads.Suite.all

let test_synth_quick () =
  let prog =
    Fsam_frontend.Lower.compile_string
      (Fsam_workloads.Minic_synth.generate Fsam_workloads.Minic_synth.quick)
  in
  let d = D.run prog in
  check_same ~name:"synth quick" d;
  check_same ~name:"synth quick/prov" ~prov:true d

let test_figure12_configs () =
  let d = D.run (suite_prog "word_count") in
  List.iter
    (fun (name, (c : D.config)) -> check_same ~name ~prov:true ~config:c.D.svfg d)
    [
      ("full", D.default_config);
      ("no-interleaving", D.no_interleaving);
      ("no-value-flow", D.no_value_flow);
      ("no-lock", D.no_lock);
    ]

let prop_random =
  QCheck.Test.make ~count:40 ~name:"sparse = dense oblivious def-use on random programs"
    QCheck.(pair bool (int_range 0 10_000))
    (fun (minic, seed) ->
      let prog =
        if minic then
          Fsam_frontend.Lower.compile_string (Fsam_workloads.Rand_minic.generate ~seed ~size:18)
        else Fsam_workloads.Rand_prog.generate ~seed ~size:26 ()
      in
      let d = D.run prog in
      check_same ~name:(Printf.sprintf "random %b/%d" minic seed) ~prov:true ~same_order:false
        d;
      true)

(* A warm edit patches the graph with the sparse builder; the result must
   match a dense cold build of the edited program (the patched graph keeps
   the previous generation's numbering, so only the structure is compared,
   over the nodes that carry edges). *)
let test_patch () =
  let module E = Fsam_serve.Engine in
  let eng = E.create () in
  (match E.load eng (Test_serve.mt_source ~target:"worker_a" ~lock_var:"m1" ~global:"g1") with
  | Error e -> Alcotest.failf "load failed: %s" e
  | Ok _ -> ());
  let src = Test_serve.mt_source ~target:"worker_a" ~lock_var:"m1" ~global:"g2" in
  (match E.edit_source eng src with
  | Error e -> Alcotest.failf "edit failed: %s" e
  | Ok info -> (
    match info.E.e_phases with
    | Some p -> Alcotest.(check bool) "svfg patched" true p.E.ph_svfg_patched
    | None -> Alcotest.fail "edit ran cold"));
  let patched = (E.driver eng).D.svfg in
  let dense = rebuild ~dense:true (D.run (Fsam_frontend.Lower.compile_string src)) in
  let es, _, rs = structure patched and ed, _, rd = structure dense in
  let incident es =
    List.sort_uniq compare (List.concat_map (fun (s, _, d, _, _) -> [ s; d ]) es)
  in
  if es <> ed then Alcotest.fail "patched edges/owners differ from the dense cold build";
  Alcotest.(check (list string)) "nodes with edges" (incident ed) (incident es);
  if rs <> rd then Alcotest.fail "patched racy sets differ from the dense cold build"

let counter name = Option.value ~default:0 (M.find_counter name)

let oblivious_counters prog =
  ignore (D.run prog);
  ( counter "svfg.oblivious_pairs",
    counter "svfg.oblivious_relevant",
    counter "svfg.oblivious_visits" )

let test_counters () =
  let pairs, relevant, visits = oblivious_counters (suite_prog "word_count") in
  Alcotest.(check (list int))
    "word_count pairs/relevant/visits" [ 223; 1775; 1944 ] [ pairs; relevant; visits ];
  let pairs, relevant, visits = oblivious_counters (suite_prog "x264") in
  if visits > 4 * (relevant + pairs) then
    Alcotest.failf "x264: %d visits > 4 x (%d relevant + %d pairs)" visits relevant pairs

let suite =
  [
    Alcotest.test_case "sparse = dense on the suite" `Slow test_suite;
    Alcotest.test_case "sparse = dense on synth quick" `Quick test_synth_quick;
    Alcotest.test_case "sparse = dense under figure 12 configs" `Quick test_figure12_configs;
    QCheck_alcotest.to_alcotest prop_random;
    Alcotest.test_case "patched = dense cold build" `Quick test_patch;
    Alcotest.test_case "oblivious work counters" `Slow test_counters;
  ]
