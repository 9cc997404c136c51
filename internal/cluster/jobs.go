package cluster

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"strconv"
	"strings"

	"repro/internal/problem"
	"repro/internal/service"
)

// Cluster job IDs are "w<worker>:<worker-local id>": the prefix pins the ring
// member that owns the job so GET/DELETE route back to it without any
// coordinator-side job table.

// jobID builds the cluster-visible ID for a worker-local job ID.
func jobID(worker int, id string) string {
	return "w" + strconv.Itoa(worker) + ":" + id
}

// splitJobID parses a cluster job ID back into its worker index and
// worker-local ID.
func (c *Coordinator) splitJobID(id string) (int, string, error) {
	rest, ok := strings.CutPrefix(id, "w")
	if !ok {
		return 0, "", fmt.Errorf("cluster: job ID %q has no worker prefix", id)
	}
	idx, local, ok := strings.Cut(rest, ":")
	if !ok {
		return 0, "", fmt.Errorf("cluster: job ID %q has no worker prefix", id)
	}
	w, err := strconv.Atoi(idx)
	if err != nil || w < 0 || w >= len(c.cfg.Workers) {
		return 0, "", fmt.Errorf("cluster: job ID %q names no known worker", id)
	}
	return w, local, nil
}

// SubmitJob forwards an async POST /jobs to the formula's home node (ring
// successors on failure) and returns the accepted snapshot with the cluster
// job ID. The idempotency key pins the logical submission across failovers.
func (c *Coordinator) SubmitJob(ctx context.Context, p *problem.Problem, eng service.Engine, lim service.Limits) (service.JobInfo, error) {
	if eng == "" {
		eng = service.EnginePortfolio
	}
	body, err := marshalFormula(p.Formula)
	if err != nil {
		return service.JobInfo{}, fmt.Errorf("cluster: serializing formula: %w", err)
	}
	key := p.CanonicalHash()
	path := "/jobs" + strings.TrimPrefix(solvePath(eng, lim, false), "/solve")
	reply, err := c.forward(ctx, c.ring.order(key), path, body, key+":job")
	if err != nil {
		return service.JobInfo{}, err
	}
	info := reply.JobInfo
	info.ID = jobID(reply.worker, info.ID)
	return info, nil
}

// jobRequest performs one worker-pinned job request (GET snapshot, GET
// trace, DELETE) and returns the raw response. No failover: the job lives on
// exactly one worker.
func (c *Coordinator) jobRequest(ctx context.Context, method, id, suffix, query string) (int, []byte, int, error) {
	w, local, err := c.splitJobID(id)
	if err != nil {
		return 0, nil, http.StatusNotFound, err
	}
	url := c.cfg.Workers[w] + "/jobs/" + local + suffix + query
	req, err := http.NewRequestWithContext(ctx, method, url, nil)
	if err != nil {
		return 0, nil, http.StatusInternalServerError, err
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0, nil, http.StatusBadGateway,
			fmt.Errorf("cluster: %s unreachable: %w", c.cfg.Workers[w], err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, nil, http.StatusBadGateway, err
	}
	return w, raw, resp.StatusCode, nil
}

// GetJob fetches a job snapshot from its owning worker, rewriting the ID
// back to cluster form. withCert passes ?cert=1 through, and the certificate
// attachment (if any) is returned verbatim in the second result.
func (c *Coordinator) GetJob(ctx context.Context, id string, withCert bool) (service.JobInfo, string, int, error) {
	query := ""
	if withCert {
		query = "?cert=1"
	}
	w, raw, status, err := c.jobRequest(ctx, http.MethodGet, id, "", query)
	if err != nil {
		return service.JobInfo{}, "", status, err
	}
	if status != http.StatusOK {
		return service.JobInfo{}, "", status, fmt.Errorf("cluster: worker answered %d: %s", status, strings.TrimSpace(string(raw)))
	}
	var reply solveReply
	if err := json.Unmarshal(raw, &reply); err != nil {
		return service.JobInfo{}, "", http.StatusBadGateway, fmt.Errorf("cluster: bad reply: %w", err)
	}
	reply.JobInfo.ID = jobID(w, reply.JobInfo.ID)
	return reply.JobInfo, reply.CertSkolem, status, nil
}

// GetTrace fetches a job's pipeline trace from its owning worker. The
// payload is passed through verbatim except for the rewritten ID.
func (c *Coordinator) GetTrace(ctx context.Context, id string) ([]byte, int, error) {
	w, raw, status, err := c.jobRequest(ctx, http.MethodGet, id, "/trace", "")
	if err != nil {
		return nil, status, err
	}
	if status != http.StatusOK {
		return raw, status, nil
	}
	var doc map[string]json.RawMessage
	if err := json.Unmarshal(raw, &doc); err != nil {
		return nil, http.StatusBadGateway, fmt.Errorf("cluster: bad trace reply: %w", err)
	}
	idJSON, _ := json.Marshal(jobID(w, strings.Trim(string(doc["id"]), `"`)))
	doc["id"] = idJSON
	out, err := json.Marshal(doc)
	if err != nil {
		return nil, http.StatusInternalServerError, err
	}
	return out, status, nil
}

// CancelJob forwards a DELETE to the job's owning worker.
func (c *Coordinator) CancelJob(ctx context.Context, id string) (int, error) {
	_, raw, status, err := c.jobRequest(ctx, http.MethodDelete, id, "", "")
	if err != nil {
		return status, err
	}
	if status != http.StatusOK {
		return status, fmt.Errorf("cluster: worker answered %d: %s", status, strings.TrimSpace(string(raw)))
	}
	return status, nil
}
