package core

import "testing"

func TestPlanted(t *testing.T) {
	if New(Config{Fanout: 1, Rounds: 1}, 1).Planted() != 8 {
		t.Fatal("want 8 peers")
	}
}
