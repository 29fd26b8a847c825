//! `qaec serve` on its stdin transport, driven through the binary: a
//! line that is not UTF-8 gets one error response, the requests around
//! it are still answered, and the process exits 0.

use std::io::Write;
use std::process::{Command, Stdio};

#[test]
fn a_non_utf8_line_does_not_drop_the_batch() {
    let request = |id: u32| {
        format!(
            "{{\"v\": 1, \"id\": {id}, \"op\": \"check\", \
             \"ideal\": \"OPENQASM 2.0;\\nqreg q[1];\\nh q[0];\\n\", \
             \"noisy\": \"OPENQASM 2.0;\\nqreg q[1];\\nh q[0];\\n\", \"epsilon\": 0.05}}\n"
        )
    };
    let mut input = request(1).into_bytes();
    input.extend_from_slice(b"\xff\xfe\n");
    input.extend_from_slice(request(2).as_bytes());

    let mut child = Command::new(env!("CARGO_BIN_EXE_qaec"))
        .arg("serve")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::piped())
        .spawn()
        .expect("spawn qaec serve");
    child
        .stdin
        .take()
        .expect("stdin")
        .write_all(&input)
        .expect("write requests");
    let output = child.wait_with_output().expect("qaec serve exits");

    let stdout = String::from_utf8(output.stdout).expect("responses are UTF-8");
    let lines: Vec<&str> = stdout.lines().collect();
    assert!(
        output.status.success(),
        "exit {:?}: {}",
        output.status,
        String::from_utf8_lossy(&output.stderr)
    );
    assert_eq!(lines.len(), 3, "{stdout}");
    assert!(lines[0].contains("\"id\": 1,") && lines[0].contains("\"ok\": true"));
    assert!(lines[1].contains("\"ok\": false"), "{}", lines[1]);
    assert!(lines[1].contains("not valid UTF-8"), "{}", lines[1]);
    assert!(lines[2].contains("\"id\": 2,") && lines[2].contains("\"ok\": true"));
}
