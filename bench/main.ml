(* The experiment harness: one entry per paper table/figure (DESIGN.md's
   per-experiment index). Run everything with `dune exec bench/main.exe`,
   or name experiments: `dune exec bench/main.exe -- fig7 fig12 --quick`. *)

let experiments =
  [
    ("table1", "Table 1: guard costs", Exp_tables.table1);
    ("table2", "Table 2: primitive overheads vs Fastswap", Exp_tables.table2);
    ("fig6", "Figure 6: cost-model crossover", Exp_micro.fig6);
    ("fig7", "Figure 7: chunking on STREAM", Exp_micro.fig7);
    ("fig8", "Figure 8: selective chunking on k-means", Exp_micro.fig8);
    ("fig9", "Figure 9: object size on hashmap", Exp_params.fig9);
    ("fig10", "Figure 10: object size on STREAM", Exp_params.fig10);
    ("fig11", "Figure 11: prefetching", Exp_params.fig11);
    ("fig12", "Figure 12: STREAM vs Fastswap", Exp_params.fig12);
    ("fig13", "Figure 13: I/O amplification", Exp_apps.fig13);
    ("fig14", "Figure 14: analytics application", Exp_apps.fig14);
    ("fig15", "Figure 15: analytics chunking variants", Exp_apps.fig15);
    ("fig16", "Figure 16: memcached skew sweep", Exp_apps.fig16);
    ("fig17", "Figure 17: NAS suite", Exp_nas.fig17);
    ("table3", "Table 3: NAS inventory", Exp_nas.table3);
    ("compile_costs", "Section 4.6: compilation costs", Exp_tables.compile_costs);
    ("ablate_state_table", "Ablation: object state table",
      Exp_nas.ablate_state_table);
    ("concurrency", "Concurrency: latency hiding on the TCP backend",
      Exp_nas.concurrency);
    ("ablate_multisize", "Ablation: multi-object-size heap",
      Exp_nas.ablate_multisize);
    ("ablate_eviction", "Ablation: evacuator hotness tracking",
      Exp_nas.ablate_eviction);
    ("table4", "Table 4: qualitative comparison", Exp_tables.table4);
    ("related_dilos", "Related work: DiLOS-style LibOS baseline",
      Exp_tables.related_dilos);
    ("hw_kona", "Section 5: Kona-style hardware interposition",
      Exp_tables.hw_kona);
    ("limits_pointer_chase", "Section 5 limitation: pointer chasing",
      Exp_tables.limits_pointer_chase);
    ("robustness_scale", "Methodology: scale invariance of the shapes",
      Exp_tables.robustness_scale);
    ("guard_elision", "Static analysis: redundant-guard elision",
      Exp_elision.guard_elision);
    ("interproc_elision", "Static analysis: interprocedural summaries",
      Exp_interproc.interproc_elision);
    ("faults_goodput", "Robustness: goodput under fabric faults",
      Exp_faults.faults_goodput);
    ("durability", "Robustness: replicated tier vs crash faults",
      Exp_durability.durability);
    ("attribution", "Observability: per-class latency attribution",
      Exp_attribution.attribution);
    ("serving_slo", "Robustness: SLO vs offered load per backend",
      Exp_serving.serving_slo);
    ("engine_speedup", "Infrastructure: compiled engine dispatch throughput",
      Exp_engine.engine_speedup);
    ("hybrid_routing", "Hybrid data plane: guards vs paging per site",
      Exp_hybrid.hybrid_routing);
    ("shape_routing", "Shape analysis: routing helper-hidden pointer chases",
      Exp_shape.shape_routing);
  ]

let () =
  let args = List.tl (Array.to_list Sys.argv) in
  let quick = List.mem "--quick" args in
  let bechamel = List.mem "--bechamel" args in
  (* --faults SPEC / --fault-seed N: fault injection for every far-memory
     run (see Faults.parse for the SPEC grammar). *)
  let rec extract_opt name = function
    | flag :: v :: rest when flag = name ->
        let rest, found = extract_opt name rest in
        (rest, Some v :: found)
    | a :: rest ->
        let rest, found = extract_opt name rest in
        (a :: rest, found)
    | [] -> ([], [])
  in
  let args, fault_specs = extract_opt "--faults" args in
  (match List.filter_map Fun.id fault_specs with
  | spec :: _ -> (
      match Faults.parse spec with
      | Ok cfg -> Bench_common.fault_cfg := cfg
      | Error e ->
          Printf.eprintf "bad --faults spec: %s\n" e;
          exit 1)
  | [] -> ());
  let int_opt name cell args =
    let args, vals = extract_opt name args in
    (match List.filter_map Fun.id vals with
    | s :: _ -> (
        match int_of_string_opt s with
        | Some n -> cell := n
        | None ->
            Printf.eprintf "bad %s %s (integer expected)\n" name s;
            exit 1)
    | [] -> ());
    args
  in
  let args = int_opt "--fault-seed" Bench_common.fault_seed args in
  (* --replicas N / --ack K: replicated remote tier for every far-memory
     run (1/1 = the single-server model, bit for bit). *)
  let args = int_opt "--replicas" Bench_common.replicas args in
  let args = int_opt "--ack" Bench_common.ack args in
  let check flag v r =
    Result.iter_error
      (fun e ->
        Printf.eprintf "bad %s %d: %s\n" flag v e;
        exit 1)
      r
  in
  let replicas = !Bench_common.replicas and ack = !Bench_common.ack in
  check "--replicas" replicas (Cluster.check_replicas replicas);
  check "--ack" ack (Cluster.check_ack ~replicas ack);
  (* --engine interp|compiled: execution engine for every run. *)
  let args, engines = extract_opt "--engine" args in
  (match List.filter_map Fun.id engines with
  | name :: _ -> (
      match Tfm_interp.Engine.of_string name with
      | Some e -> Bench_common.engine := e
      | None ->
          Printf.eprintf "unknown engine %s (interp|compiled)\n" name;
          exit 1)
  | [] -> ());
  let rec mkdir_p d =
    if not (Sys.file_exists d) then begin
      mkdir_p (Filename.dirname d);
      Sys.mkdir d 0o755
    end
  in
  (* --metrics-dir DIR: also write each experiment's tables as JSON. *)
  let args, dirs = extract_opt "--metrics-dir" args in
  (match List.filter_map Fun.id dirs with
  | dir :: _ ->
      mkdir_p dir;
      Bench_common.metrics_dir := Some dir
  | [] -> ());
  (* --attribution-dir DIR: span-traced experiments also write their
     per-run attribution JSON there. *)
  let args, attr_dirs = extract_opt "--attribution-dir" args in
  (match List.filter_map Fun.id attr_dirs with
  | dir :: _ ->
      mkdir_p dir;
      Bench_common.attribution_dir := Some dir
  | [] -> ());
  let named =
    List.filter (fun a -> a <> "--quick" && a <> "--bechamel") args
  in
  Bench_common.quick := quick;
  let selected =
    if named = [] then experiments
    else
      List.filter_map
        (fun name ->
          match List.find_opt (fun (n, _, _) -> n = name) experiments with
          | Some e -> Some e
          | None ->
              Printf.eprintf "unknown experiment %s (available: %s)\n" name
                (String.concat ", " (List.map (fun (n, _, _) -> n) experiments));
              exit 1)
        named
  in
  Printf.printf
    "TrackFM reproduction benchmark harness%s — %d experiment(s)\n\n"
    (if quick then " (quick mode)" else "")
    (List.length selected);
  List.iter
    (fun (name, title, f) ->
      Printf.printf "### %s — %s\n" name title;
      let t0 = Unix.gettimeofday () in
      f ();
      let elapsed = Unix.gettimeofday () -. t0 in
      Bench_common.flush_metrics ~experiment:name ~elapsed_s:elapsed;
      Printf.printf "[%s done in %.1fs]\n\n%!" name elapsed)
    selected;
  if bechamel then Bech.run ()
