package sched

import (
	"testing"

	"orchestra/internal/machine"
)

func TestTreeDepth(t *testing.T) {
	cases := map[int]int{1: 0, 2: 1, 3: 2, 4: 2, 8: 3, 9: 4, 1024: 10}
	for p, want := range cases {
		if got := NewTokenTree(p).Depth(); got != want {
			t.Errorf("depth(%d) = %d, want %d", p, got, want)
		}
	}
}

func TestEpochCompletion(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	tt := NewTokenTree(4)
	// Three tokens: no epoch end.
	for j := 0; j < 3; j++ {
		if _, end := tt.Token(j, cfg); end {
			t.Fatal("epoch ended early")
		}
	}
	// The fourth completes epoch 0.
	if _, end := tt.Token(3, cfg); !end {
		t.Fatal("epoch did not end after p tokens")
	}
	if tt.Epoch() != 1 || tt.Broadcasts != 1 {
		t.Fatalf("epoch=%d broadcasts=%d", tt.Epoch(), tt.Broadcasts)
	}
}

func TestFastProcessorTokensCountAgainstLaterEpochs(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	tt := NewTokenTree(4)
	// Processor 0 races ahead: its extra tokens belong to later epochs
	// and must not complete epoch 0 by themselves.
	for k := 0; k < 4; k++ {
		if _, end := tt.Token(0, cfg); end {
			t.Fatal("one processor completed an epoch alone")
		}
	}
	// The stragglers' first tokens complete epoch 0.
	tt.Token(1, cfg)
	tt.Token(2, cfg)
	if _, end := tt.Token(3, cfg); !end {
		t.Fatal("epoch 0 not completed by the stragglers")
	}
}

func TestTokenLatencyScalesWithDepth(t *testing.T) {
	cfg := machine.DefaultConfig(1024)
	small := NewTokenTree(4)
	big := NewTokenTree(1024)
	l1, _ := small.Token(0, cfg)
	l2, _ := big.Token(0, cfg)
	if l2 <= l1 {
		t.Fatalf("latency should grow with machine size: %v vs %v", l1, l2)
	}
}

func TestMessageAccounting(t *testing.T) {
	cfg := machine.DefaultConfig(4)
	tt := NewTokenTree(4)
	for j := 0; j < 4; j++ {
		tt.Token(j, cfg)
	}
	// 4 upward tokens + one broadcast of p-1 messages.
	if tt.Messages != 4+3 {
		t.Fatalf("messages = %d, want 7", tt.Messages)
	}
}

func TestTokenIgnoresBadProcessor(t *testing.T) {
	cfg := machine.DefaultConfig(2)
	tt := NewTokenTree(2)
	if l, end := tt.Token(99, cfg); l != 0 || end {
		t.Fatal("out-of-range processor accepted")
	}
}
