(* hare_cli's argument errors, run through the built executable: a
   configuration no machine can boot is refused with one line and exit
   1 before anything runs; explore's bad arguments exit 2. *)

open Test_util

let refused ~rc ~needle args () =
  let got, out, err = hare_cli args in
  let cmd = String.concat " " args in
  Alcotest.(check int) (cmd ^ ": exit code") rc got;
  Alcotest.(check string) (cmd ^ ": nothing on stdout") "" out;
  if not (contains ~needle err) then
    Alcotest.failf "%s: stderr %S lacks %S" cmd err needle

let tc = Alcotest.test_case

let suites : (string * unit Alcotest.test_case list) list =
  [
    ( "cli.bad-arguments",
      [
        tc "bench: split leaves no app core" `Quick
          (refused ~rc:1 ~needle:"bad configuration: split"
             [ "bench"; "creates"; "--cores"; "8"; "--split"; "9" ]);
        tc "perf: zero window" `Quick
          (refused ~rc:1 ~needle:"bad configuration: rpc_window"
             [ "perf"; "creates"; "--window"; "0" ]);
        tc "faults: plan targets a missing server" `Quick
          (refused ~rc:1 ~needle:"bad configuration: fault plan targets fs9"
             [ "faults"; "creates"; "--cores"; "4";
               "--plan"; "crash:9@100+100" ]);
        tc "explore: unknown strategy" `Quick
          (refused ~rc:2 ~needle:"unknown strategy foo"
             [ "explore"; "collide"; "--strategy"; "foo" ]);
        tc "explore: malformed replay" `Quick
          (refused ~rc:2 ~needle:"bad --replay"
             [ "explore"; "collide"; "--replay"; "1,x" ]);
      ] );
  ]
