package fleet

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strings"
	"sync"
	"time"

	"repro/internal/reconfig"
)

// Client is the fleet-side library behind the repository benchmark and
// any Go caller of a routerd replica set: it knows the replica URLs in shard
// order, scatters a decision batch by node ownership, gathers the
// answers back into request order, and retries a down replica with
// exponential backoff before giving up. Replica i must be running
// with -shard i/N where N = len(replicas); ownership is Owner(node,
// N) on both sides, so the client and the servers can never disagree
// about who answers a node.
type Client struct {
	replicas []string
	hc       *http.Client
	retries  int
	backoff  time.Duration
	// bufs pools the *[]byte a sub-batch is encoded into and its answer
	// read into.
	bufs sync.Pool
}

// ClientOptions tune NewClient.
type ClientOptions struct {
	// Retries is how many times a failed sub-batch is re-sent to its
	// replica before the batch errors (default 3).
	Retries int
	// Backoff is the first retry delay; it doubles per attempt
	// (default 50ms).
	Backoff time.Duration
	// HTTPClient overrides the transport (default: 30s timeout).
	HTTPClient *http.Client
}

// NewClient builds a client over the replica base URLs in shard order.
func NewClient(replicas []string, opts ClientOptions) (*Client, error) {
	if len(replicas) == 0 {
		return nil, fmt.Errorf("fleet: no replicas")
	}
	replicas = slices.Clone(replicas) // the trimming below must not reach into the caller's slice
	for i, r := range replicas {
		replicas[i] = strings.TrimRight(r, "/")
	}
	if opts.Retries < 0 {
		opts.Retries = 0
	} else if opts.Retries == 0 {
		opts.Retries = 3
	}
	if opts.Backoff <= 0 {
		opts.Backoff = 50 * time.Millisecond
	}
	hc := opts.HTTPClient
	if hc == nil {
		hc = &http.Client{Timeout: 30 * time.Second}
	}
	c := &Client{replicas: replicas, hc: hc, retries: opts.Retries, backoff: opts.Backoff}
	c.bufs.New = func() any { return new([]byte) }
	return c, nil
}

// Replicas returns the replica count.
func (c *Client) Replicas() int { return len(c.replicas) }

// URL returns replica i's base URL.
func (c *Client) URL(i int) string { return c.replicas[i] }

// Decide routes one decision to the owning replica.
func (c *Client) Decide(ctx context.Context, req *reconfig.DecisionRequest) (reconfig.Decision, error) {
	out, err := c.DecideBatch(ctx, []reconfig.DecisionRequest{*req})
	if err != nil {
		return reconfig.Decision{}, err
	}
	return out[0], nil
}

// DecideBatch scatters reqs over the owning replicas, gathers the
// decisions back into request order, and returns them. Sub-batches to
// distinct replicas fly concurrently (the last one on the calling
// goroutine); a replica that errors
// (transport failure or non-200) is retried with doubling backoff and
// only fails the batch once the retry budget is spent. Each sub-batch
// travels as one binary frame (wire.go); the candidates of one
// replica's answers share a backing array.
func (c *Client) DecideBatch(ctx context.Context, reqs []reconfig.DecisionRequest) ([]reconfig.Decision, error) {
	if len(reqs) == 0 {
		return nil, nil
	}
	n := len(c.replicas)
	// Scatter by counting sort: order lists the request positions
	// grouped by owning replica, and after the fill ends[o] is where
	// replica o's group stops (and o+1's starts).
	ends := make([]int, n)
	for i := range reqs {
		ends[Owner(reqs[i].Node, n)]++
	}
	sum := 0
	for o, count := range ends {
		ends[o] = sum
		sum += count
	}
	order := make([]int, len(reqs))
	for i := range reqs {
		o := Owner(reqs[i].Node, n)
		order[ends[o]] = i
		ends[o]++
	}
	out := make([]reconfig.Decision, len(reqs))
	var (
		wg       sync.WaitGroup
		mu       sync.Mutex
		firstErr error
	)
	send := func(o int, sub []int) {
		if err := c.postBatch(ctx, o, reqs, sub, out); err != nil {
			mu.Lock()
			if firstErr == nil {
				firstErr = fmt.Errorf("replica %d (%s): %w", o, c.replicas[o], err)
			}
			mu.Unlock()
		}
	}
	// Every non-empty sub-batch but the last flies on its own
	// goroutine; the last one (its replica owns order's last entry) is
	// sent from this goroutine, whose stack has already grown through
	// net/http, so a batch for one replica starts no goroutine at all.
	last := Owner(reqs[order[len(order)-1]].Node, n)
	start := 0
	for o, end := range ends {
		sub := order[start:end]
		start = end
		switch {
		case len(sub) == 0:
		case o == last:
			send(o, sub)
		default:
			wg.Add(1)
			go func() {
				defer wg.Done()
				send(o, sub)
			}()
		}
	}
	wg.Wait()
	if firstErr != nil {
		return nil, firstErr
	}
	return out, nil
}

// postBatch sends the sub-batch reqs[sub[0]], reqs[sub[1]], … to
// replica o with the retry/backoff policy and decodes the answers into
// out at the same positions.
func (c *Client) postBatch(ctx context.Context, o int, reqs []reconfig.DecisionRequest, sub []int, out []reconfig.Decision) error {
	frame, answer := c.bufs.Get().(*[]byte), c.bufs.Get().(*[]byte)
	// The answer is read to its end and its body closed before post
	// returns, so that buffer is ours alone again.
	defer c.bufs.Put(answer)
	var err error
	if *frame, err = AppendBatchRequest((*frame)[:0], reqs, sub); err != nil {
		c.bufs.Put(frame)
		return err
	}
	// Every attempt resends the same bytes, so the frame stays out of
	// the pool until the last one has ended — and goes back only if none
	// failed: a complete answer proves the replica has consumed the
	// whole body, while after a refused or broken attempt net/http's
	// write loop may still be reading it (a request body may be reused
	// only after its Close, which a *bytes.Reader does not show us).
	clean := true
	err = c.retry(ctx, func() error {
		*answer, err = c.post(ctx, c.replicas[o]+"/decide/batch", BatchContentType, *frame, (*answer)[:0])
		if err == nil {
			err = DecodeBatchResponse(*answer, out, sub)
		}
		clean = clean && err == nil
		return err
	})
	if clean {
		c.bufs.Put(frame)
	}
	return err
}

// retry runs attempt until it succeeds or the retry budget is spent,
// sleeping the doubling backoff (or until ctx ends) between tries.
func (c *Client) retry(ctx context.Context, attempt func() error) error {
	var err error
	delay := c.backoff
	for i := 0; i <= c.retries; i++ {
		if i > 0 {
			select {
			case <-ctx.Done():
				return ctx.Err()
			case <-time.After(delay):
			}
			delay *= 2
		}
		if err = attempt(); err == nil {
			return nil
		}
	}
	return fmt.Errorf("after %d attempts: %w", c.retries+1, err)
}

// post issues one POST and returns the response body appended to buf;
// a non-200 status is an error carrying the (JSON error) body.
func (c *Client) post(ctx context.Context, url, contentType string, payload, buf []byte) ([]byte, error) {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(payload))
	if err != nil {
		return buf, err
	}
	req.Header.Set("Content-Type", contentType)
	resp, err := c.hc.Do(req)
	if err != nil {
		return buf, err
	}
	buf, err = readAll(resp.Body, buf)
	resp.Body.Close()
	if err != nil {
		return buf, err
	}
	if resp.StatusCode != http.StatusOK {
		return buf, fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(buf))
	}
	return buf, nil
}

// Broadcast POSTs the same payload to every replica (rollout
// operations must reach the whole fleet: each replica runs its own
// registry). It returns the per-replica response bodies in shard
// order and fails on the first replica that errors after retries.
func (c *Client) Broadcast(ctx context.Context, path string, payload []byte) ([][]byte, error) {
	out := make([][]byte, len(c.replicas))
	for o := range c.replicas {
		err := c.retry(ctx, func() (err error) {
			out[o], err = c.post(ctx, c.replicas[o]+path, "application/json", payload, nil)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("replica %d (%s): %w", o, c.replicas[o], err)
		}
	}
	return out, nil
}

// Push uploads an encoded artifact to every replica's registry and
// returns the assigned version id (asserted identical across
// replicas — the fleet rollout protocol pushes in lockstep).
func (c *Client) Push(ctx context.Context, artifact []byte) (int, error) {
	bodies, err := c.Broadcast(ctx, "/registry/push", artifact)
	if err != nil {
		return 0, err
	}
	version := 0
	for i, b := range bodies {
		var ans struct {
			Version int `json:"version"`
		}
		if err := json.Unmarshal(b, &ans); err != nil {
			return 0, fmt.Errorf("replica %d: %w", i, err)
		}
		if i == 0 {
			version = ans.Version
		} else if ans.Version != version {
			return 0, fmt.Errorf("replica %d assigned version %d, replica 0 assigned %d (registries out of lockstep)", i, ans.Version, version)
		}
	}
	return version, nil
}

// Canary starts a canary of version id at the given fraction on every
// replica.
func (c *Client) Canary(ctx context.Context, version int, fraction float64) error {
	payload, _ := json.Marshal(map[string]any{"version": version, "fraction": fraction})
	_, err := c.Broadcast(ctx, "/canary", payload)
	return err
}

// Promote promotes the live canary on every replica.
func (c *Client) Promote(ctx context.Context) error {
	_, err := c.Broadcast(ctx, "/promote", []byte("{}"))
	return err
}

// Rollback rolls every replica back to its previous version.
func (c *Client) Rollback(ctx context.Context) error {
	_, err := c.Broadcast(ctx, "/rollback", []byte("{}"))
	return err
}

// RegistryStatus fetches replica i's GET /registry document.
func (c *Client) RegistryStatus(ctx context.Context, i int) (RegistryStatus, error) {
	var st RegistryStatus
	err := c.getJSON(ctx, c.replicas[i]+"/registry", &st)
	return st, err
}

// Metrics fetches replica i's /metrics document into v (pass a
// pointer to the caller's struct; the document is a superset of
// reconfig.MetricsSnapshot).
func (c *Client) Metrics(ctx context.Context, i int, v any) error {
	return c.getJSON(ctx, c.replicas[i]+"/metrics", v)
}

func (c *Client) getJSON(ctx context.Context, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := c.hc.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		body, _ := io.ReadAll(resp.Body)
		return fmt.Errorf("%s: %s", resp.Status, bytes.TrimSpace(body))
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
