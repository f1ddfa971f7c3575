package main

import "testing"

func TestParsePeer(t *testing.T) {
	t.Parallel()
	id, addr, err := parsePeer("3=127.0.0.1:9000")
	if err != nil || id != 3 || addr != "127.0.0.1:9000" {
		t.Fatalf("parsePeer = %v %q %v", id, addr, err)
	}
	cases := []string{"", "127.0.0.1:9000", "x=127.0.0.1:9000", "0=127.0.0.1:9000", "4294967297=127.0.0.1:9000"}
	for _, c := range cases {
		if _, _, err := parsePeer(c); err == nil {
			t.Errorf("parsePeer(%q) accepted", c)
		}
	}
}

func TestRunRejectsBadFlags(t *testing.T) {
	t.Parallel()
	if err := run([]string{"-id", "0"}); err == nil {
		t.Fatal("id 0 accepted")
	}
	if err := run([]string{"-id", "nope"}); err == nil {
		t.Fatal("bad id accepted")
	}
	if err := run([]string{"-id", "4294967297"}); err == nil {
		t.Fatal("id past 2^32-1 accepted")
	}
	if err := run([]string{"-id", "1", "-bind", "not-an-address"}); err == nil {
		t.Fatal("bad bind accepted")
	}
	if err := run([]string{"-id", "1", "-bind", "127.0.0.1:0", "-join", "garbage"}); err == nil {
		t.Fatal("bad join spec accepted")
	}
	if err := run([]string{"-id", "1", "-protocol", "rumor-mill"}); err == nil {
		t.Fatal("unknown protocol accepted")
	}
	if err := run([]string{"-id", "1", "-bind", "127.0.0.1:0", "-ctl-addr", "not-an-address"}); err == nil {
		t.Fatal("bad control-plane address accepted")
	}
}
