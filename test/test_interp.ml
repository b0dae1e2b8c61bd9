(* Tests for the interpreter and backends. *)

let run ?(entry = "main") ?args m =
  let clock = Clock.create () in
  let backend = Backend.local Cost_model.default clock (Memstore.create ()) in
  (Interp.run ?args backend m ~entry).Interp.ret

let test_arithmetic () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let v =
    Builder.binop b Ir.Sub
      (Builder.mul b (Ir.Const 6) (Ir.Const 7))
      (Ir.Const 2)
  in
  let v = Builder.binop b Ir.Sdiv v (Ir.Const 4) in
  Builder.ret b (Some v);
  Alcotest.(check int) "(6*7-2)/4" 10 (run m)

let test_float_ops () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let x = Builder.fbinop b Ir.Fmul (Ir.Constf 2.5) (Ir.Constf 4.0) in
  let y = Builder.fbinop b Ir.Fadd x (Ir.Constf 0.5) in
  Builder.ret b (Some (Builder.fp_to_si b y));
  Alcotest.(check int) "2.5*4+0.5" 10 (run m)

let test_division_by_zero_traps () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let v = Builder.binop b Ir.Sdiv (Ir.Const 1) (Ir.Const 0) in
  Builder.ret b (Some v);
  Alcotest.(check bool) "traps" true
    (try
       ignore (run m);
       false
     with Interp.Trap _ -> true)

let test_memory_roundtrip () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 64 ] in
  Builder.store b ~size:4 (Ir.Const 0xCAFE) ~ptr:p;
  Builder.ret b (Some (Builder.load b ~size:4 p));
  Alcotest.(check int) "store/load" 0xCAFE (run m)

let test_globals () =
  let m = Ir.create_module () in
  Ir.add_global m "g" 16;
  let b = Builder.create m ~name:"main" ~nparams:0 in
  Builder.store b (Ir.Const 55) ~ptr:(Ir.Sym "g");
  Builder.ret b (Some (Builder.load b (Ir.Sym "g")));
  Alcotest.(check int) "global rw" 55 (run m)

let test_alloca_frames_restored () =
  let m = Ir.create_module () in
  (* callee: allocates and writes its own slot *)
  let bc = Builder.create m ~name:"callee" ~nparams:1 in
  let slot = Builder.alloca bc 16 in
  Builder.store bc (Builder.arg 0) ~ptr:slot;
  Builder.ret bc (Some (Builder.load bc slot));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let slot0 = Builder.alloca b 16 in
  Builder.store b (Ir.Const 1) ~ptr:slot0;
  let r1 = Builder.call b "callee" [ Ir.Const 42 ] in
  let r2 = Builder.call b "callee" [ Ir.Const 58 ] in
  (* main's slot must be untouched by callee frames *)
  let own = Builder.load b slot0 in
  Builder.ret b (Some (Builder.add b own (Builder.add b r1 r2)));
  Alcotest.(check int) "frames isolated" 101 (run m)

let test_function_args_and_calls () =
  let m = Ir.create_module () in
  let badd = Builder.create m ~name:"add3" ~nparams:3 in
  Builder.ret badd
    (Some
       (Builder.add badd
          (Builder.add badd (Builder.arg 0) (Builder.arg 1))
          (Builder.arg 2)));
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let r = Builder.call b "add3" [ Ir.Const 1; Ir.Const 2; Ir.Const 3 ] in
  Builder.ret b (Some r);
  Alcotest.(check int) "call with args" 6 (run m)

let test_float_arg_helper_call () =
  (* a defined IR function with float parameters must dispatch directly,
     not through the intrinsic path (whose int coercion would trap) *)
  let m = Ir.create_module () in
  let bh = Builder.create m ~name:"fmadd" ~nparams:2 in
  let prod = Builder.fbinop bh Ir.Fmul (Builder.arg 0) (Builder.arg 1) in
  Builder.ret bh (Some (Builder.fbinop bh Ir.Fadd prod (Ir.Constf 0.5)))
  ;
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let r = Builder.call b "fmadd" [ Ir.Constf 2.0; Ir.Constf 3.0 ] in
  Builder.ret b (Some (Builder.fp_to_si b (Builder.fbinop b Ir.Fmul r (Ir.Constf 10.0))));
  Alcotest.(check int) "float helper result" 65 (run m)

let test_entry_args () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:2 in
  Builder.ret b (Some (Builder.mul b (Builder.arg 0) (Builder.arg 1)));
  Alcotest.(check int) "entry args" 12 (run ~args:[ 3; 4 ] m)

let test_fuel_exhaustion () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let loop = Builder.add_block b "spin" in
  Builder.br b loop;
  Builder.set_block b loop;
  Builder.br b loop;
  let clock = Clock.create () in
  let backend = Backend.local Cost_model.default clock (Memstore.create ()) in
  Alcotest.(check bool) "runs out of fuel" true
    (try
       ignore (Interp.run ~fuel:10_000 backend m ~entry:"main");
       false
     with Interp.Trap _ -> true)

let test_unknown_function_traps () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  ignore (Builder.call b "no_such_function" []);
  Builder.ret b None;
  Alcotest.(check bool) "traps" true
    (try
       ignore (run m);
       false
     with Interp.Trap _ -> true)

let test_cycles_monotonic_and_positive () =
  let n = 500 in
  let m = Workloads.Stream.build ~n ~kernel:Workloads.Stream.Sum () in
  let clock = Clock.create () in
  let backend = Backend.local Cost_model.default clock (Memstore.create ()) in
  let r = Interp.run backend m ~entry:"main" in
  Alcotest.(check bool) "cycles positive" true (r.Interp.cycles > 0);
  Alcotest.(check bool) "instr count sane" true
    (r.Interp.instrs_executed > 2 * n)

let test_profile_collection () =
  let m = Workloads.Stream.build ~n:100 ~kernel:Workloads.Stream.Sum () in
  let profile = Profile.create () in
  let clock = Clock.create () in
  let backend = Backend.local Cost_model.default clock (Memstore.create ()) in
  ignore (Interp.run ~profile backend m ~entry:"main");
  Alcotest.(check int) "entry once" 1
    (Profile.block_count profile ~func:"main" ~block:"entry");
  (* the sum loop header runs 101 times (100 iterations + exit check) *)
  let f = Ir.find_func m "main" in
  let header =
    List.find
      (fun (b : Ir.block) ->
        String.length b.label >= 3 && String.sub b.label 0 3 = "sum"
        && List.exists
             (fun (i : Ir.instr) ->
               match i.kind with Ir.Phi _ -> true | _ -> false)
             b.instrs)
      f.blocks
  in
  Alcotest.(check int) "header count" 101
    (Profile.block_count profile ~func:"main" ~block:header.label)

(* Every block of every function of [m]: (func, block) pairs. *)
let all_blocks (m : Ir.modul) =
  List.concat_map
    (fun (f : Ir.func) ->
      List.map (fun (b : Ir.block) -> (f.Ir.fname, b.Ir.label)) f.blocks)
    m.Ir.funcs

let check_same_profile label m a b =
  List.iter
    (fun (func, block) ->
      Alcotest.(check int)
        (Printf.sprintf "%s: %s/%s" label func block)
        (Profile.block_count a ~func ~block)
        (Profile.block_count b ~func ~block))
    (all_blocks m)

(* Both engines count block executions in per-block slots and fold them
   into the profile at exit; the folded profiles must agree block for
   block. *)
let test_profile_engines_agree () =
  let open Workloads in
  let hp = Hashmap.default_params ~keys:500 ~lookups:1_000 in
  List.iter
    (fun (name, build, blobs) ->
      let interp = Driver.profile_of ~engine:Engine.Interp ~blobs build in
      let compiled = Driver.profile_of ~engine:Engine.Compiled ~blobs build in
      Alcotest.(check bool)
        (name ^ ": entry counted") true
        (Profile.block_count interp ~func:"main" ~block:"entry" = 1);
      check_same_profile name (build ()) interp compiled)
    [
      ("stream-sum", (fun () -> Stream.build ~n:2_000 ~kernel:Stream.Sum ()), []);
      ("kmeans", Kmeans.build (Kmeans.default_params ~n:300), []);
      ("hashmap", Hashmap.build hp, [ (0, Hashmap.trace_blob hp) ]);
      ("analytics", Analytics.build (Analytics.default_params ~rows:500), []);
      ("llist", Llist.build ~nodes:300 ~tnodes:63, []);
    ]

(* A run that runs out of fuel mid-loop keeps the counts of the blocks it
   executed before the trap, identically on both engines. *)
let test_profile_survives_trap () =
  let m = Workloads.Stream.build ~n:100_000 ~kernel:Workloads.Stream.Sum () in
  let profiled engine =
    let profile = Profile.create () in
    let clock = Clock.create () in
    let backend = Backend.local Cost_model.default clock (Memstore.create ()) in
    Alcotest.(check bool)
      (Engine.to_string engine ^ ": out of fuel") true
      (try
         ignore
           (Engine.run ~engine ~profile ~fuel:20_000 backend m ~entry:"main");
         false
       with Interp.Trap _ -> true);
    profile
  in
  let interp = profiled Engine.Interp in
  let compiled = profiled Engine.Compiled in
  let counts p =
    List.map
      (fun (func, block) -> Profile.block_count p ~func ~block)
      (all_blocks m)
  in
  Alcotest.(check int) "entry counted" 1
    (Profile.block_count interp ~func:"main" ~block:"entry");
  Alcotest.(check bool) "a loop block ran many times" true
    (List.exists (fun n -> n > 100) (counts interp));
  check_same_profile "fuel trap" m interp compiled

let test_trackfm_backend_rejects_raw_malloc () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  ignore (Builder.call b "malloc" [ Ir.Const 64 ]);
  Builder.ret b None;
  let clock = Clock.create () in
  let store = Memstore.create () in
  let rt =
    Trackfm.Runtime.create Cost_model.default clock store ~object_size:4096
      ~local_budget:65536
  in
  let backend = Backend.trackfm rt store in
  Alcotest.(check bool) "untransformed malloc rejected" true
    (try
       ignore (Interp.run backend m ~entry:"main");
       false
     with Failure _ -> true)

let test_bench_begin_resets () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  let p = Builder.call b "malloc" [ Ir.Const 8192 ] in
  Builder.for_loop b ~init:(Ir.Const 0) ~bound:(Ir.Const 512) (fun b iv ->
      Builder.store b (Ir.Const 1) ~ptr:(Builder.gep b p ~index:iv ~scale:8 ()));
  ignore (Builder.call b "!bench_begin" []);
  Builder.ret b (Some (Ir.Const 0));
  let clock = Clock.create () in
  let backend = Backend.local Cost_model.default clock (Memstore.create ()) in
  let r = Interp.run backend m ~entry:"main" in
  (* everything before bench_begin is discarded; only ret remains *)
  Alcotest.(check bool) "clock nearly zero" true (r.Interp.cycles < 10)

let test_cpu_work_intrinsic () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  ignore (Builder.call b "!cpu_work" [ Ir.Const 12345 ]);
  Builder.ret b None;
  let clock = Clock.create () in
  let backend = Backend.local Cost_model.default clock (Memstore.create ()) in
  let r = Interp.run backend m ~entry:"main" in
  Alcotest.(check bool) "charged" true (r.Interp.cycles >= 12345)


let test_trackfm_backend_requires_init () =
  (* A transformed program whose runtime-initialization hook was somehow
     dropped must fail loudly, like a real binary without runtime setup. *)
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"main" ~nparams:0 in
  ignore (Builder.call b "tfm_malloc" [ Ir.Const 64 ]);
  Builder.ret b None;
  let clock = Clock.create () in
  let store = Memstore.create () in
  let rt =
    Trackfm.Runtime.create Cost_model.default clock store ~object_size:4096
      ~local_budget:65536
  in
  Alcotest.(check bool) "rejected" true
    (try
       ignore (Interp.run (Backend.trackfm rt store) m ~entry:"main");
       false
     with Failure _ -> true)


let test_recursion_depth_limited () =
  let m = Ir.create_module () in
  let b = Builder.create m ~name:"spin" ~nparams:0 in
  let r = Builder.call b "spin" [] in
  Builder.ret b (Some r);
  let bm = Builder.create m ~name:"main" ~nparams:0 in
  Builder.ret bm (Some (Builder.call bm "spin" []));
  Alcotest.(check bool) "infinite recursion trapped" true
    (try
       ignore (run m);
       false
     with Interp.Trap _ -> true)

let suite =
  ( "interp",
    [
      Alcotest.test_case "arithmetic" `Quick test_arithmetic;
      Alcotest.test_case "float ops" `Quick test_float_ops;
      Alcotest.test_case "div by zero" `Quick test_division_by_zero_traps;
      Alcotest.test_case "memory roundtrip" `Quick test_memory_roundtrip;
      Alcotest.test_case "globals" `Quick test_globals;
      Alcotest.test_case "alloca frames" `Quick test_alloca_frames_restored;
      Alcotest.test_case "function calls" `Quick test_function_args_and_calls;
      Alcotest.test_case "float-arg helper call" `Quick
        test_float_arg_helper_call;
      Alcotest.test_case "entry args" `Quick test_entry_args;
      Alcotest.test_case "fuel" `Quick test_fuel_exhaustion;
      Alcotest.test_case "unknown function" `Quick test_unknown_function_traps;
      Alcotest.test_case "cycles positive" `Quick test_cycles_monotonic_and_positive;
      Alcotest.test_case "profile collection" `Quick test_profile_collection;
      Alcotest.test_case "profile: engines agree" `Quick
        test_profile_engines_agree;
      Alcotest.test_case "profile: kept on trap" `Quick
        test_profile_survives_trap;
      Alcotest.test_case "raw malloc rejected" `Quick
        test_trackfm_backend_rejects_raw_malloc;
      Alcotest.test_case "bench_begin resets" `Quick test_bench_begin_resets;
      Alcotest.test_case "cpu_work" `Quick test_cpu_work_intrinsic;
      Alcotest.test_case "backend requires init" `Quick
        test_trackfm_backend_requires_init;
      Alcotest.test_case "recursion depth limit" `Quick
        test_recursion_depth_limited;
    ] )
